"""Shared pieces of the benchmark: pairs, seeded inputs, checks, statistics,
spans, the out-of-process service and the clean-up of every process the
benchmark starts.

Every workload draws its inputs from :func:`make_values`: uniform
target-format bit patterns inside
``repro.rangereduction.domains.sampling_domain`` for the pair, with every
special lane resampled away.  Inputs marked ``specials=True`` then get
about 1% of their lanes replaced by special inputs of that pair (NaN or
NaR, +-inf, +-0, out of domain, overflow/underflow or posit saturation),
so both the batch engine's no-specials fast path and its compress path
run.  The seed is the only source of randomness.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run-time output (service sockets, service logs, span dumps); ignored by git
OUT = ROOT / ".perfbench"

F32_FUNCS = ("ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh",
             "sinpi", "cospi")
P32_FUNCS = ("ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh")
#: the 18 shipped (function, target) pairs, in round-robin order
PAIRS = [(f, "float32") for f in F32_FUNCS] + \
    [(f, "posit32") for f in P32_FUNCS]
TAG = {"float32": "f32", "posit32": "p32"}
#: per-layer batch groups: range-reduction family x target
GROUPS = {
    "log_f32": [("ln", "float32"), ("log2", "float32"), ("log10", "float32")],
    "exp_f32": [("exp", "float32"), ("exp2", "float32"), ("exp10", "float32")],
    "hyp_f32": [("sinh", "float32"), ("cosh", "float32")],
    "trig_f32": [("sinpi", "float32"), ("cospi", "float32")],
    "log_p32": [("ln", "posit32"), ("log2", "posit32"), ("log10", "posit32")],
    "exp_p32": [("exp", "posit32"), ("exp2", "posit32"), ("exp10", "posit32")],
    "hyp_p32": [("sinh", "posit32"), ("cosh", "posit32")],
}

#: Known posit32 misroundings of the shipped tables (ROADMAP).  They are
#: replayed on every run of every workload and count as wrong lanes until
#: the tables are fixed; `correct` stays true only while every wrong lane
#: is one of these.
KNOWN_MISROUNDINGS = [
    ("ln", "posit32", "0x1.04c25d8p+0", 0x18b72db1),
    ("exp10", "posit32", "-0x1.b88ddc6p+1", 0x08f63abf),
]

SPECIAL_SHARE = 0.01


def import_program():
    """Put the checkout's ``src`` on the path and import the library.

    Exits with status 2 (and no result line) when the program is absent,
    e.g. in a directory holding only the benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC.name}/ next to the "
              "benchmark", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import api

    return api


# -- seeded inputs ---------------------------------------------------------


class InputSpace:
    """Ordinal view of one pair's sampling domain and its special menu."""

    def __init__(self, lib):
        from repro.batch.rounding import decode_kernel
        from repro.fp.formats import FloatFormat
        from repro.rangereduction.domains import sampling_domain

        fmt = lib.fn.spec.target
        self.rr = lib.fn.spec.rr
        self.is_float = isinstance(fmt, FloatFormat)
        self.decode = decode_kernel(fmt)
        lo, hi = sampling_domain(lib.name, fmt, self.rr)
        # finite ordinal range of the format (posit: NaR excluded)
        self.ord_max = fmt.to_ordinal(fmt.inf_bits) - 1 if self.is_float \
            else fmt.maxpos_bits
        self.lo = self._inside(fmt.to_ordinal(fmt.from_double(lo)), lo, +1)
        self.hi = self._inside(fmt.to_ordinal(fmt.from_double(hi)), hi, -1)
        self.specials = self._special_menu(fmt)

    def values(self, ords: np.ndarray) -> np.ndarray:
        """Decode int64 ordinals to the doubles the runtime receives."""
        if self.is_float:
            bits = np.where(ords >= 0, ords, (1 << 31) | -ords)
        else:
            bits = ords & 0xFFFFFFFF
        return self.decode(bits.astype(np.uint64))

    def _inside(self, o: int, bound: float, step: int) -> int:
        while (self.values(np.array([o]))[0] - bound) * step < 0:
            o += step
        return o

    def _special_menu(self, fmt) -> np.ndarray:
        rng = np.random.default_rng(0)
        cand = []
        if self.is_float:
            bits = [fmt.nan_bits, fmt.inf_bits, fmt.inf_bits | fmt.sign_mask,
                    0, fmt.sign_mask]
            cand.append(self.decode(np.array(bits, dtype=np.uint64)))
        else:
            cand.append(self.decode(np.array([fmt.nar_bits, 0],
                                             dtype=np.uint64)))
        for a, b in ((-self.ord_max, self.lo - 1), (self.hi + 1, self.ord_max)):
            if a <= b:
                cand.append(self.values(rng.integers(a, b + 1, 16)))
        cand = np.concatenate(cand)
        return cand[self.rr.special_batch(cand)[0]]


def make_values(space: InputSpace, rng: np.random.Generator, n: int,
                specials: bool) -> np.ndarray:
    """``n`` seeded non-special inputs; ~1% special lanes if ``specials``."""
    xs = space.values(rng.integers(space.lo, space.hi + 1, n))
    for _ in range(100):
        mask = space.rr.special_batch(xs)[0]
        if not mask.any():
            break
        xs[mask] = space.values(rng.integers(space.lo, space.hi + 1,
                                             int(mask.sum())))
    else:
        raise RuntimeError("could not draw non-special inputs")
    if specials:
        at, vals = special_lanes(space, rng, n)
        xs[at] = vals
    return xs


def special_lanes(space: InputSpace, rng: np.random.Generator, n: int):
    """Positions and values of ~1% special lanes for an ``n``-lane input."""
    k = max(1, round(n * SPECIAL_SHARE))
    at = rng.choice(n, k, replace=False)
    return at, space.specials[rng.integers(0, len(space.specials), k)]


# -- output checks ---------------------------------------------------------


class Tally:
    """Lanes attempted and failed, with the failure split by kind."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.wrong_known = 0
        self.shed = 0
        self.error = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def add(self, attempted=0, wrong=0, shed=0, error=0, note=None,
            wrong_known=0):
        with self._lock:
            self.attempted += attempted
            self.wrong += wrong
            self.wrong_known += wrong_known
            self.shed += shed
            self.error += error
            if note and len(self.notes) < 20:
                self.notes.append(note)

    @property
    def failed(self) -> int:
        return self.wrong + self.shed + self.error

    @property
    def correct(self) -> bool:
        """No wrong lane beyond the known misroundings, and no errors."""
        return self.wrong == self.wrong_known and self.error == 0


def check_lanes(libs: dict, seed: int, oracle_per_pair: int = 2):
    """The check set: every committed corpus entry, the known misroundings
    and a seeded oracle sample, per pair.

    Returns ``{pair: (xs float64, want uint64, known bool mask)}``.  The
    oracle sample is drawn from the pair's sampling domain with a seed
    derived from the run seed.
    """
    from repro.oracle.mpmath_oracle import Oracle

    docs = {}
    for path in sorted(glob.glob(str(ROOT / "tests" / "data" / "adversarial"
                                      / "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        docs[(doc["function"], doc["target"])] = doc
    oracle = Oracle()
    rng = np.random.default_rng([seed, 7])
    out = {}
    for pair, lib in libs.items():
        space = InputSpace(lib)
        fmt = lib.fn.spec.target
        entries = docs.get(pair, {"entries": []})["entries"]
        bits = np.array([int(e["x"], 16) for e in entries], dtype=np.uint64)
        xs = [space.decode(bits)]
        want = [int(e["want"], 16) for e in entries]
        known = [False] * len(entries)
        for fn, target, x, w in KNOWN_MISROUNDINGS:
            if (fn, target) == pair:
                xs.append(np.array([float.fromhex(x)]))
                want.append(w)
                known.append(True)
        sample = make_values(space, rng, oracle_per_pair, specials=False)
        xs.append(sample)
        want += [oracle.round_to_bits(pair[0], float(x), fmt)
                 for x in sample.tolist()]
        known += [False] * len(sample)
        out[pair] = (np.concatenate(xs), np.array(want, dtype=np.uint64),
                     np.array(known))
    return out


def score(tally: Tally, got: np.ndarray, want: np.ndarray,
          known: np.ndarray | None = None, what: str = "") -> None:
    """Bit-compare one batch of outputs; wrong lanes go to the tally."""
    bad = got.astype(np.uint64) != want.astype(np.uint64)
    n_bad = int(bad.sum())
    n_known = int((bad & known).sum()) if known is not None else 0
    tally.add(attempted=len(want), wrong=n_bad, wrong_known=n_known,
              note=f"{what}: {n_bad} wrong lanes" if n_bad > n_known else None)


# -- statistics ------------------------------------------------------------


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


# -- spans -----------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    Off (``on=False``) every method returns at once; hot loops test
    ``tracer.on`` before taking timestamps at all.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def record(self, name: str, start: int, end: int, parent: int | None = None,
               req: int | None = None) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append((sid, name, start, end, parent, req))
        return sid

    @contextlib.contextmanager
    def span(self, name: str, req: int | None = None):
        if not self.on:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, req)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "req": req}) + "\n")


# -- the out-of-process service -------------------------------------------


class ServiceProcess:
    """``python -m repro serve`` in its own process on a unix socket.

    The socket path is relative to the checkout root (the working
    directory of both processes), which keeps it short and inside the
    checkout.
    """

    def __init__(self, tag: str, workers: int = 1):
        OUT.mkdir(exist_ok=True)
        self.address = os.path.relpath(OUT / f"svc-{os.getpid()}-{tag}.sock",
                                       ROOT)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.address)
        self.log = OUT / f"svc-{os.getpid()}-{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.t_spawn = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--targets",
                 "float32", "posit32", "--workers", str(workers),
                 "--address", self.address],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)

    def connect(self, fn: str, target: str, **kw):
        from repro.serve.client import ServiceClient

        return ServiceClient(fn, target, address=self.address, **kw)

    def wait_ping(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first successful ``OP_PING``."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited: {self.log.read_text()}")
            try:
                with self.connect("exp", "float32") as c:
                    if c.ping():
                        return time.perf_counter() - self.t_spawn
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.002)
        raise RuntimeError("service did not answer a ping in time")

    def _tree(self) -> list[int]:
        """The service process and its descendants (the worker and the
        resource tracker)."""
        return [self.proc.pid] + descendants(self.proc.pid)

    def tree_rss_mb(self) -> float:
        """Sum of peak RSS (VmHWM) over the process tree."""
        total_kb = 0
        for pid in self._tree():
            with contextlib.suppress(FileNotFoundError), \
                    open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def tree_cpu_s(self) -> float:
        """CPU seconds run so far by every thread of the process tree,
        from ``schedstat`` (ns resolution; ``stat``'s 10 ms ticks would
        quantise a 2 s window's figure in steps of ~5%)."""
        ns = 0
        for pid in self._tree():
            for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
                with contextlib.suppress(FileNotFoundError), \
                        open(path) as fh:
                    ns += int(fh.read().split()[0])
        return ns * 1e-9

    def stop(self) -> None:
        """SIGINT the service, wait for it, then for every other process of
        its group: its worker and resource tracker can outlive it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        end_group(self.proc.pid)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.address)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.log)


# -- processes -------------------------------------------------------------
#
# The benchmark starts the service, cold-start probes, and (in the traced
# run) a worker pool and the multiprocessing resource tracker.  The
# service's worker and tracker are its children, not ours, and may outlive
# it; so the benchmark makes itself the reaper of orphaned descendants,
# starts each child process in a process group of its own, and on every
# way out waits for (and past a grace period kills) whatever is left.

#: prctl option: orphaned descendants are reparented to this process
PR_SET_CHILD_SUBREAPER = 36
#: seconds a leftover process gets to exit on its own before SIGKILL
GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants, so it can
    wait for them (Linux; elsewhere init reaps them)."""
    with contextlib.suppress(OSError, AttributeError):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stat(pid: int):
    """(state, parent pid, process group) of ``pid``, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return fields[0], int(fields[1]), int(fields[2])


def descendants(pid: int) -> list[int]:
    """Every process below ``pid``, zombies included, from
    ``/proc/*/task/*/children``."""
    out, todo = [], [pid]
    while todo:
        for path in glob.glob(f"/proc/{todo.pop()}/task/*/children"):
            with contextlib.suppress(FileNotFoundError, ProcessLookupError), \
                    open(path) as fh:
                for child in map(int, fh.read().split()):
                    out.append(child)
                    todo.append(child)
    return out


def _reap(pids) -> None:
    """Collect the exit status of each of ``pids`` that is our ended child."""
    for pid in pids:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _end(running) -> None:
    """Wait until ``running()`` (live pids, zombies excluded) is empty;
    SIGKILL what is left after GRACE_S; reap the ones that are ours."""
    deadline = time.perf_counter() + GRACE_S
    killed = False
    while True:
        live = []
        for pid in running():
            st = _stat(pid)
            if st is None:
                continue
            if st[0] == "Z":
                _reap([pid])
            else:
                live.append(pid)
        if not live:
            return
        if not killed and time.perf_counter() > deadline:
            for pid in live:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            killed = True
        elif killed and time.perf_counter() > deadline + 30:
            raise RuntimeError(f"processes {live} survived SIGKILL")
        time.sleep(0.01)


def end_group(pgid: int) -> None:
    """Wait for every process of group ``pgid`` to end (see :func:`_end`)."""
    def members():
        out = []
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _stat(int(name))
                if st is not None and st[2] == pgid:
                    out.append(int(name))
        return out

    _end(members)


def end_descendants() -> None:
    """Stop every process this one started, directly or not, and wait for
    each: in-process worker pools and the resource tracker are shut down
    the way they expect, anything else gets GRACE_S and then SIGKILL."""
    executor = sys.modules.get("repro.parallel.executor")
    if executor is not None:
        executor.clear_shared_pools()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    rt = getattr(tracker, "_resource_tracker", None)
    if rt is not None and getattr(rt, "_fd", None) is not None:
        rt._stop()
    _end(lambda: descendants(os.getpid()))
