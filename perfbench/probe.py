"""Cold-start probe, run in a fresh interpreter by the benchmark.

    python3 perfbench/probe.py batch|publish

It imports nothing from the benchmark, so the figures cover the library
alone.  ``batch``: import the library, load all 18 pairs, then make the
first 256-lane batch call of each pair.  ``publish``: publish all 18 pairs
into a shared-memory arena and attach it.  Prints one JSON line of stage
times in ms; the parent times the whole probe from spawn to that line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

PAIRS = [(f, "float32") for f in ("ln", "log2", "log10", "exp", "exp2",
                                  "exp10", "sinh", "cosh", "sinpi", "cospi")] + \
    [(f, "posit32") for f in ("ln", "log2", "log10", "exp", "exp2", "exp10",
                              "sinh", "cosh")]


def main(mode: str) -> dict:
    import numpy as np

    if mode == "publish":
        from repro.serve import tables

        t1 = time.perf_counter()
        arena = tables.publish(PAIRS)
        t2 = time.perf_counter()
        att = tables.attach(arena.name, expect_hash=arena.content_hash)
        for fn, target in PAIRS:
            att.batch_function(tables.arena_key(fn, target))
        t3 = time.perf_counter()
        att.close()
        arena.close()
        return {"import_ms": (t1 - T0) * 1e3, "publish_ms": (t2 - t1) * 1e3,
                "attach_ms": (t3 - t2) * 1e3}
    from repro import api

    t1 = time.perf_counter()
    libs = [api.load(fn, target) for fn, target in PAIRS]
    t2 = time.perf_counter()
    xs = np.linspace(0.5, 1.5, 256)
    for lib in libs:
        lib.evaluate_bits_batch(xs)
    t3 = time.perf_counter()
    return {"import_ms": (t1 - T0) * 1e3, "load_ms": (t2 - t1) * 1e3,
            "build_ms": (t3 - t2) * 1e3}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])), flush=True)
