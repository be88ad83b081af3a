"""Cold-start cost of the shipped tables: legacy vs compact vs arena.

The compact frozen-table layout (:mod:`repro.libm.compact`) exists for
exactly one reason beyond disk size: loading.  A legacy data module is
an 11k-line literal dict the interpreter must parse, build and GC-track
float by float; a compact module is ~100 lines of base85 text decoded
with one ``np.frombuffer``; an attached shared-memory arena skips the
module system entirely.  This benchmark measures all three the only
honest way — **fresh subprocesses with bytecode caching disabled**, so
neither ``sys.modules`` nor ``__pycache__`` can flatter a contender:

* *legacy*  — every shipped module re-rendered through
  :func:`repro.libm.serialize.render_module_legacy` into a tmpdir,
  then parsed + ``function_from_dict`` per pair (the pre-compact boot);
* *compact* — the shipped sources copied into a sibling tmpdir (same
  pyc-free footing), then parsed + ``function_from_dict(decode(COMPACT))``
  per pair (the runtime loader's route);
* *attach*  — map the published arena and build every batch kernel.

Wall time and RSS delta for each, past the common interpreter+numpy
baseline.  The registry floor asserts the acceptance criterion: the
compact cold boot of all 18 shipped pairs must be at least **3x**
faster than the legacy one (measured ~10-15x; the floor leaves room
for noisy CI hosts).  On-disk size of both renderings is reported too.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from repro.obs import metrics
from repro.obs.bench import benchmark, emit_report

IMPORT_SPEEDUP_FLOOR = 3.0

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RSS_HELPER = """\
def _rss_mb():
    with open("/proc/self/status") as fh:
        line = next(l for l in fh if l.startswith("VmRSS"))
    return int(line.split()[1]) / 1024.0
"""

#: loads every ``*.py`` data module under $BENCH_TREE (sorted, package
#: machinery bypassed: one spec per file) and rebuilds each function
#: exactly the way :func:`repro.libm.runtime.load_function` would —
#: compact modules through the pool decode, legacy ones through the
#: literal dict.  numpy/repro are imported before t0: the delta is the
#: table cost alone.
_LOAD_SNIPPET = _RSS_HELPER + """\
import glob, importlib.util, json, os, time
import numpy as np  # noqa: F401  — baseline, not measured
from repro.libm.compact import decode
from repro.libm.serialize import function_from_dict
paths = sorted(glob.glob(os.path.join(os.environ["BENCH_TREE"],
                                      "data_*", "*.py")))
assert len(paths) == 18, paths
r0, t0 = _rss_mb(), time.perf_counter()
fns = []
for i, path in enumerate(paths):
    spec = importlib.util.spec_from_file_location(f"_bench_mod{i}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    comp = getattr(mod, "COMPACT", None)
    fns.append(function_from_dict(decode(comp) if comp is not None
                                  else mod.DATA))
print(json.dumps({"time_s": time.perf_counter() - t0,
                  "rss_mb": _rss_mb() - r0, "n": len(fns)}))
"""

_ATTACH_SNIPPET = _RSS_HELPER + """\
import json, os, time
import numpy as np  # noqa: F401  — baseline, not measured
from repro.serve import tables
r0, t0 = _rss_mb(), time.perf_counter()
arena = tables.attach(os.environ["BENCH_ARENA"],
                      expect_hash=os.environ["BENCH_HASH"], untrack=True)
for key in arena.keys():
    arena.batch_function(key)
print(json.dumps({"time_s": time.perf_counter() - t0,
                  "rss_mb": _rss_mb() - r0, "n": len(arena.keys())}))
arena.close()
"""


def _subprocess_cost(snippet: str, extra_env: dict[str, str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra_env)
    out = subprocess.run([sys.executable, "-B", "-c", snippet], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _tree_kb(root: str) -> float:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files if f.endswith(".py"))
    return total / 1024.0


def _build_trees(tmp: str) -> tuple[str, str]:
    """(legacy_tree, compact_tree): 18 data modules each, no pyc."""
    import repro.libm.data_float32 as pkg_f32
    import repro.libm.data_posit32 as pkg_p32
    from repro.libm.serialize import render_module_legacy

    legacy = os.path.join(tmp, "legacy")
    compact = os.path.join(tmp, "compact")
    for pkg in (pkg_f32, pkg_p32):
        pkg_dir = os.path.dirname(pkg.__file__)
        pkg_name = os.path.basename(pkg_dir)
        os.makedirs(os.path.join(legacy, pkg_name))
        os.makedirs(os.path.join(compact, pkg_name))
        for fname in sorted(os.listdir(pkg_dir)):
            if not fname.endswith(".py") or fname == "__init__.py":
                continue
            src = os.path.join(pkg_dir, fname)
            shutil.copy(src, os.path.join(compact, pkg_name, fname))
            mod_name = f"repro.libm.{pkg_name}.{fname[:-3]}"
            import importlib
            mod = importlib.import_module(mod_name)
            with open(os.path.join(legacy, pkg_name, fname), "w") as fh:
                fh.write(render_module_legacy(mod.DATA))
    return legacy, compact


@benchmark("import_time", suite="quick",
           floors={"import_speedup": IMPORT_SPEEDUP_FLOOR})
def run_import_time() -> dict[str, float]:
    """Cold boot of all 18 pairs: compact must beat legacy >= 3x."""
    from repro import api
    from repro.serve import tables

    pairs = [(f, t) for t in ("float32", "posit32")
             for f in api.available(t)]
    with tempfile.TemporaryDirectory(prefix="bench_import_") as tmp:
        legacy_tree, compact_tree = _build_trees(tmp)
        legacy_kb = _tree_kb(legacy_tree)
        compact_kb = _tree_kb(compact_tree)
        # best-of-3 per contender, interleaved so page-cache and CPU
        # frequency drift hit all three alike
        legacy_s = compact_s = attach_s = float("inf")
        legacy_cost = compact_cost = attach_cost = None
        with tables.publish(pairs) as arena:
            arena_env = {"BENCH_ARENA": arena.name,
                         "BENCH_HASH": arena.content_hash}
            for _ in range(3):
                c = _subprocess_cost(_LOAD_SNIPPET,
                                     {"BENCH_TREE": legacy_tree})
                if c["time_s"] < legacy_s:
                    legacy_s, legacy_cost = c["time_s"], c
                c = _subprocess_cost(_LOAD_SNIPPET,
                                     {"BENCH_TREE": compact_tree})
                if c["time_s"] < compact_s:
                    compact_s, compact_cost = c["time_s"], c
                c = _subprocess_cost(_ATTACH_SNIPPET, arena_env)
                if c["time_s"] < attach_s:
                    attach_s, attach_cost = c["time_s"], c

    gauges = {
        "legacy_s": legacy_s,
        "legacy_rss_mb": legacy_cost["rss_mb"],
        "compact_s": compact_s,
        "compact_rss_mb": compact_cost["rss_mb"],
        "attach_s": attach_s,
        "attach_rss_mb": attach_cost["rss_mb"],
        "import_speedup": legacy_s / compact_s,
        "attach_speedup": legacy_s / attach_s,
        "legacy_kb": legacy_kb,
        "compact_kb": compact_kb,
        "size_ratio": legacy_kb / compact_kb,
    }
    for name, value in gauges.items():
        metrics.gauge(f"import.bench.{name}").set(float(value))

    lines = [
        "Cold-start cost, all 18 shipped pairs (fresh subprocess, "
        "no pyc, best of 3):",
        f"  legacy literal modules : {legacy_s:7.3f} s  "
        f"+{legacy_cost['rss_mb']:6.1f} MB RSS   {legacy_kb:8.1f} KB disk",
        f"  compact modules        : {compact_s:7.3f} s  "
        f"+{compact_cost['rss_mb']:6.1f} MB RSS   {compact_kb:8.1f} KB disk",
        f"  arena attach           : {attach_s:7.3f} s  "
        f"+{attach_cost['rss_mb']:6.1f} MB RSS",
        "",
        f"  compact import speedup : {gauges['import_speedup']:6.2f}x "
        f"(floor: {IMPORT_SPEEDUP_FLOOR:.0f}x)",
        f"  arena attach speedup   : {gauges['attach_speedup']:6.2f}x",
        f"  on-disk size ratio     : {gauges['size_ratio']:6.2f}x",
    ]
    text = "\n".join(lines)
    print(text)
    emit_report("import_time.txt", text + "\n")
    return gauges


@pytest.mark.bench
@pytest.mark.benchmark(group="import")
def test_import_time(benchmark, report_dir):
    gauges = benchmark.pedantic(run_import_time, rounds=1, iterations=1)
    assert gauges["import_speedup"] >= IMPORT_SPEEDUP_FLOOR, (
        f"compact cold boot only {gauges['import_speedup']:.2f}x faster "
        f"than legacy; acceptance floor is {IMPORT_SPEEDUP_FLOOR:.0f}x")


if __name__ == "__main__":
    run_import_time()
