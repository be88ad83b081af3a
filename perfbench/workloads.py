"""The two workloads.  Each ``run_*`` measures for ``seconds`` and returns
a dict of end-to-end values plus ``op_mean_us`` (mean time of the
workload's operation, used for the tracing-overhead figure).

Operations, per workload:

* ``batch_bulk``: one in-process ``Library.evaluate_bits_batch`` call on
  2^20 lanes, round-robin over the 18 pairs.
* ``serve_open``: one 256-lane ``OP_EVAL_BITS`` request sent on an open-loop
  schedule to ``python -m repro serve`` in its own process.

The scalar pools (runs of 64 inputs per pair) are not timed end to end:
``batch_bulk`` runs them through ``Library.evaluate`` as an output check,
and the traced run replays the scalar stages on them.

Array or run ``i`` of a pair carries specials iff ``i % 4 == 3``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import numpy as np

from perfbench.common import (PAIRS, TAG, InputSpace, ServiceProcess, Tally,
                              Tracer, make_values, median, pct, special_lanes)

BULK_LANES = 1 << 20
SCALAR_RUN = 64
SCALAR_RUNS = 16
REQ_LANES = 256
REQ_ARRAYS = 8
#: serve_open latency limit on p99, and the fixed rate its latency is read at
P99_LIMIT_S = 0.025
FIXED_RATE = 100.0
#: geometric ladder step for the highest sustainable rate (<= 10%)
LADDER_STEP = 1.05
MAX_FAIL_SHARE = 0.01
#: serve_open statistics are medians over windows of this many seconds
WINDOW_S = 2.0
#: latency recorded for a shed or failed request: it misses any limit
MISSED_S = 1000.0


class Windows:
    """Request latencies in us, summarised per WINDOW_S window.

    The reported p50 and p90 of a target are medians over its windows, so
    a burst of host stalls moves one window, not the run's figure.
    """

    def __init__(self):
        self.stats: dict = {"f32": [], "p32": []}
        self.total = 0.0
        self.count = 0

    def add(self, tag: str, times_us) -> None:
        v = np.asarray(times_us, dtype=np.float64)
        if len(v):
            self.stats[tag].append((pct(v, 50), pct(v, 90), len(v)))
            self.total += float(v.sum())
            self.count += len(v)

    def result(self) -> dict:
        out = {"op_mean_us": self.total / self.count}
        for tag, st in self.stats.items():
            out[f"{tag}_p50_us"] = median([w[0] for w in st])
            out[f"{tag}_p90_us"] = median([w[1] for w in st])
            out[f"{tag}_ops"] = sum(w[2] for w in st)
        return out


def per_pair_rate(per_pair: dict, lanes: int) -> float:
    """Melem/s of one sweep over the pairs, each pair at its median time
    for ``lanes`` lanes, so a burst of host stalls moves few calls."""
    return len(per_pair) * lanes / sum(median(v) for v in
                                       per_pair.values()) / 1e6


def bulk_inputs(libs: dict, seed: int):
    """One seeded 2^20-lane array per pair, plus the ~1% special lanes
    that are swapped in place for the special sweeps."""
    rng = np.random.default_rng([seed, 1])
    arrays, swaps = {}, {}
    for pair in PAIRS:
        space = InputSpace(libs[pair])
        arrays[pair] = make_values(space, rng, BULK_LANES, specials=False)
        swaps[pair] = special_lanes(space, rng, BULK_LANES)
    return arrays, swaps


class Swapped:
    """Context manager putting a pair's special lanes into its array."""

    def __init__(self, xs, swap, on: bool):
        self.xs, self.at, self.vals, self.on = xs, swap[0], swap[1], on

    def __enter__(self):
        if self.on:
            self.saved = self.xs[self.at].copy()
            self.xs[self.at] = self.vals
        return self.xs

    def __exit__(self, *exc):
        if self.on:
            self.xs[self.at] = self.saved


def bulk_sweeps(call, arrays, swaps, seconds, tracer: Tracer, name: str):
    """Round-robin 2^20-lane calls in sweeps over the 18 pairs, until
    ``seconds`` have passed (the first sweep is whole, a later one may be
    partial).

    A target's p50 and p90 are each pair's, averaged over the target's
    pairs.  A sweep holds one call per pair, so the p50 of a sweep falls
    on whichever function's call is in the middle that sweep; taken that
    way, the float32 p50 spread by 0.255 of its median over ten runs.
    """
    per_pair = {p: [] for p in PAIRS}
    t_end = time.perf_counter() + seconds
    sweep = 0
    while sweep == 0 or time.perf_counter() < t_end:
        for i, pair in enumerate(PAIRS):
            if sweep and time.perf_counter() >= t_end:
                break
            with Swapped(arrays[pair], swaps[pair], sweep % 4 == 3) as xs:
                with tracer.span(name, req=sweep * len(PAIRS) + i):
                    t0 = time.perf_counter()
                    call(pair, xs)
                    dt = time.perf_counter() - t0
            per_pair[pair].append(dt)
        sweep += 1
    calls = [dt for v in per_pair.values() for dt in v]
    res = {"op_mean_us": float(np.mean(calls)) * 1e6,
           "melem_s": per_pair_rate(per_pair, BULK_LANES)}
    for tag in TAG.values():
        mine = [v for pair, v in per_pair.items() if TAG[pair[1]] == tag]
        res[f"{tag}_p50_us"] = float(np.mean([median(v) for v in mine])) * 1e6
        res[f"{tag}_p90_us"] = float(np.mean([pct(v, 90) for v in mine])) * 1e6
        res[f"{tag}_ops"] = sum(len(v) for v in mine)
    return res


# -- batch_bulk ------------------------------------------------------------


def run_batch_bulk(libs, arrays, swaps, seconds, tracer):
    # warm sweep: first 2^20-lane call per pair allocates its temporaries
    for pair in PAIRS:
        libs[pair].evaluate_bits_batch(arrays[pair][:65536])
    # The timed calls are the reference the scalar and served results are
    # checked against, so only checked lanes (see run.measure) count as
    # attempted.
    return bulk_sweeps(lambda p, xs: libs[p].evaluate_bits_batch(xs),
                       arrays, swaps, seconds, tracer, "batch.call")


# -- scalar checks ---------------------------------------------------------


def scalar_pools(libs, seed):
    """Per pair: SCALAR_RUNS runs of 64 inputs and their expected doubles
    from the in-process batch engine."""
    rng = np.random.default_rng([seed, 2])
    pools = {}
    for pair in PAIRS:
        space = InputSpace(libs[pair])
        runs = [make_values(space, rng, SCALAR_RUN, specials=(r % 4 == 3))
                for r in range(SCALAR_RUNS)]
        pools[pair] = [(xs.tolist(), libs[pair].evaluate_batch(xs))
                       for xs in runs]
    return pools


def same_doubles(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Lane-wise bit equality of doubles, any NaN equal to any NaN."""
    eq = got.view(np.uint64) == want.view(np.uint64)
    return eq | (np.isnan(got) & np.isnan(want))


def scalar_vs_batch(libs, pools, tally: Tally) -> None:
    """Every pool lane through the scalar ``Library.evaluate``, bit-compared
    with the batch engine's result for it."""
    for pair, runs in pools.items():
        ev = libs[pair].evaluate
        for xs, want in runs:
            n = int((~same_doubles(np.array([ev(x) for x in xs]),
                                   want)).sum())
            tally.add(attempted=len(xs), wrong=n,
                      note=f"scalar {pair}: {n} lanes differ from batch"
                      if n else None)


# -- serve_open ------------------------------------------------------------


class Phase:
    """Counters of one open-loop rate phase."""

    def __init__(self, rate: float, n: int):
        self.rate, self.n = rate, n
        self.sent = self.ok = self.shed = self.failed = self.wrong = 0
        self.lat = {"f32": [], "p32": []}
        self.records: list[tuple] = []
        self.cpu_marks: list[float] = []
        self.late: list[float] = []
        self.done_at: list[float] = []
        self.first_due = self.last_due = 0.0
        self.all_done = threading.Event()
        self.lock = threading.Lock()

    def finish(self, k, tag, latency, ok, shed, wrong):
        with self.lock:
            self.ok += ok
            self.shed += shed
            self.failed += not (ok or shed)
            self.wrong += wrong
            latency = latency if ok else MISSED_S
            self.lat[tag].append(latency)
            self.records.append((k, tag, latency, ok))
            self.done_at.append(time.perf_counter())
            if len(self.done_at) == self.n:
                self.all_done.set()

    @property
    def per_window(self) -> int:
        return max(1, int(self.rate * WINDOW_S))

    def windows(self) -> Windows:
        """Latencies in us per target, split into WINDOW_S windows of
        requests by their place in the schedule."""
        n_win = -(-self.n // self.per_window)
        split = {"f32": [[] for _ in range(n_win)],
                 "p32": [[] for _ in range(n_win)]}
        for k, tag, latency, _ in self.records:
            split[tag][k // self.per_window].append(latency * 1e6)
        out = Windows()
        for tag, ws in split.items():
            for w in ws:
                out.add(tag, w)
        return out

    def lanes_per_cpu_s(self) -> list[float]:
        """Per window: lanes answered OK per CPU second of the service
        tree (needs ``cpu_marks`` taken at each window start and at the
        end)."""
        ok = [0] * (len(self.cpu_marks) - 1)
        for k, _, _, good in self.records:
            ok[k // self.per_window] += good
        return [o * REQ_LANES / (b - a) for o, a, b in
                zip(ok, self.cpu_marks, self.cpu_marks[1:]) if b > a]

    def summary(self) -> dict:
        lat = self.lat["f32"] + self.lat["p32"]
        done_by = self.last_due + P99_LIMIT_S
        backlog = self.sent - sum(1 for t in self.done_at if t <= done_by)
        bad = self.shed + self.failed + self.wrong
        s = {"rate": self.rate, "sent": self.sent, "ok": self.ok,
             "shed": self.shed, "failed": self.failed, "wrong": self.wrong,
             "p50_ms": pct(lat, 50) * 1e3, "p99_ms": pct(lat, 99) * 1e3,
             "late_p99_ms": pct(self.late, 99) * 1e3, "backlog": backlog}
        s["pass"] = (s["p99_ms"] <= P99_LIMIT_S * 1e3
                     and bad <= MAX_FAIL_SHARE * self.sent
                     and backlog <= max(2, self.rate * P99_LIMIT_S))
        return s


class OpenLoop:
    """One connection, one sender thread (the caller) and one receiver
    thread; requests go out on a fixed schedule, and each latency is
    timed from the request's due time."""

    def __init__(self, address: str, pool: dict, tracer: Tracer):
        from repro.serve import protocol

        self.proto = protocol
        self.pool = pool
        self.tracer = tracer
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(address)
        self.pending: dict[int, tuple] = {}
        self.seq = 0
        self.i = 0
        self.rx = threading.Thread(target=self._receive, daemon=True)
        self.rx.start()

    def _receive(self):
        p = self.proto
        while True:
            try:
                payload = p.recv_frame(self.sock)
            except (ConnectionError, OSError):
                return
            t = time.perf_counter()
            rep = p.unpack_reply(payload, p.OP_EVAL_BITS)
            phase, k, due, sent, pair, want = self.pending.pop(rep.req_id)
            ok = rep.status == p.STATUS_OK
            wrong = int((rep.data != want).sum()) if ok else 0
            if self.tracer.on:
                sid = self.tracer.record("serve.request", int(due * 1e9),
                                         int(t * 1e9), req=rep.req_id)
                self.tracer.record("loadgen.send", int(due * 1e9),
                                   int(sent * 1e9), parent=sid,
                                   req=rep.req_id)
            phase.finish(k, TAG[pair[1]], t - due, ok,
                         rep.status == p.STATUS_SHED, wrong)

    def run(self, rate: float, seconds: float, cpu=None) -> Phase:
        """Send ``rate * seconds`` requests on schedule and wait for every
        reply.  ``cpu``, if given, is sampled at each window start and at
        the end (see :meth:`Phase.lanes_per_cpu_s`)."""
        p = self.proto
        n = max(1, int(rate * seconds))
        phase = Phase(rate, n)
        t0 = phase.first_due = time.perf_counter() + 0.005
        for k in range(n):
            due = t0 + k / rate
            if cpu is not None and k % phase.per_window == 0:
                phase.cpu_marks.append(cpu())
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            pair = PAIRS[self.i % len(PAIRS)]
            xs, want = self.pool[pair][(self.i // len(PAIRS)) % REQ_ARRAYS]
            self.i += 1
            self.seq = (self.seq + 1) & 0xFFFFFFFF
            payload = p.pack_request(self.seq, p.OP_EVAL_BITS, pair[0],
                                     pair[1], xs)
            sent = time.perf_counter()
            self.pending[self.seq] = (phase, k, due, sent, pair, want)
            p.send_frame(self.sock, payload)
            phase.late.append(sent - due)
            phase.sent += 1
        phase.last_due = due
        if not phase.all_done.wait(30.0):
            raise RuntimeError(f"open loop at {rate:.0f} req/s did not drain")
        if cpu is not None:
            phase.cpu_marks.append(cpu())
        return phase

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.rx.join(10.0)


def request_pool(libs, seed):
    """Per pair: REQ_ARRAYS 256-lane arrays with their in-process bits."""
    rng = np.random.default_rng([seed, 3])
    pool = {}
    for pair in PAIRS:
        space = InputSpace(libs[pair])
        arrs = [make_values(space, rng, REQ_LANES, specials=(a % 4 == 3))
                for a in range(REQ_ARRAYS)]
        pool[pair] = [(xs, libs[pair].evaluate_bits_batch(xs)) for xs in arrs]
    return pool


def ladder(loop: OpenLoop, first: dict, budget_s: float, probe_s: float):
    """Highest rate on the ladder FIXED_RATE * LADDER_STEP**k that meets
    the p99 limit, the failure limit and the backlog rule.

    Gallops by 4 steps from the fixed-rate phase (k = 0) until a probe
    fails, then bisects.  Returns the achieved rate (good completions per
    second) of the highest passing probe, and every probe's summary.
    """
    probes = {0: first}
    lo, hi = (0, None) if first["pass"] else (None, 0)
    t_end = time.perf_counter() + budget_s
    while time.perf_counter() + probe_s < t_end:
        if hi is None:
            k = lo + 4
        elif lo is None:
            k = hi - 4
        elif hi - lo > 1:
            k = (lo + hi) // 2
        else:
            break
        s = loop.run(FIXED_RATE * LADDER_STEP ** k, probe_s).summary()
        probes[k] = s
        if s["pass"]:
            lo = k
        else:
            hi = k
        time.sleep(0.05)
    if lo is None:
        lo = min(probes)
    best = probes[lo]
    return best["ok"] / (best["sent"] / best["rate"]), probes


class FastSwitch:
    """Shortens the GIL switch interval while an open loop runs, so the
    sender does not wait out the receiver's 5 ms time slice."""

    def __enter__(self):
        self.saved = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)

    def __exit__(self, *exc):
        sys.setswitchinterval(self.saved)


def run_serve_open(svc: ServiceProcess, pool, seconds, tally: Tally,
                   tracer: Tracer):
    """One fixed-rate phase.  Latencies are medians over windows; melem_s
    is the goodput: lanes answered OK per second, from the first due time
    to the last reply."""
    with FastSwitch():
        loop = OpenLoop(svc.address, pool, tracer)
        try:
            fixed = loop.run(FIXED_RATE, seconds)
        finally:
            loop.close()
    tally.add(attempted=fixed.sent * REQ_LANES, wrong=fixed.wrong,
              shed=fixed.shed * REQ_LANES, error=fixed.failed * REQ_LANES,
              note=f"serve_open: {fixed.wrong} wrong lanes"
              if fixed.wrong else None)
    res = fixed.windows().result()
    finite = [v for v in fixed.lat["f32"] + fixed.lat["p32"] if v != MISSED_S]
    res["op_mean_us"] = float(np.mean(finite)) * 1e6
    res["melem_s"] = fixed.ok * REQ_LANES / (max(fixed.done_at) -
                                             fixed.first_due) / 1e6
    res["phases"] = [fixed.summary()]
    return res


def max_rate(svc: ServiceProcess, pool, seconds, tracer: Tracer):
    """The ladder: a fixed-rate anchor phase, then probes of 1 s.

    Returns the highest passing rate, the anchor's serving cost as lanes
    answered per CPU second of the service tree (median over windows) and
    every probe's summary."""
    with FastSwitch():
        loop = OpenLoop(svc.address, pool, tracer)
        try:
            anchor = loop.run(FIXED_RATE, seconds / 3, cpu=svc.tree_cpu_s)
            rate, probes = ladder(loop, anchor.summary(), seconds * 2 / 3,
                                  probe_s=1.0)
        finally:
            loop.close()
    return (rate, median(anchor.lanes_per_cpu_s()),
            [probes[k] for k in sorted(probes)])
