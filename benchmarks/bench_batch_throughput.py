"""Batch-engine throughput: vectorized sweep vs the scalar loop.

Runs the shipped float32 ``exp`` and posit32 ``exp`` each over a million
exactly-representable inputs three ways — the per-element ``evaluate``
loop, the vectorized ``evaluate_many``, and the bit-pattern
``evaluate_bits_many`` — asserts the batch results are bit-identical to
the scalar loop on a sampled slice, and records absolute throughput per
target and path (float32 in elements/s as ``*_eps``, posit32 in Melem/s
as ``throughput_melem_*_p32``) next to the batch/scalar speedup ratios
as gauges in the ``batch_throughput.metrics.json`` sidecar and the
``BENCH_<host>.json`` trajectory (suite ``quick``).

The acceptance bar is a ≥16x float32 speedup on this exact sweep
(raised from the original 10x once merged sign tables, index
pre-expansion and cache blocking landed — measured ~22x); that floor is
declared on the registry entry (and re-asserted in the pytest wrapper)
so a regression in the numpy pipeline (a stray copy, a lost fast path)
fails the benchmark rather than just slowing it.  The posit32 row has no
floor: its ratio is read next to its absolute figures.  The scalar loop
is timed over a subsample and extrapolated — at ~1M elements/s it is
pure overhead to run in full every benchmark session.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import api
from repro.batch.rounding import round_kernel
from repro.obs import metrics
from repro.obs.bench import benchmark, emit_report
from repro.posit.format import POSIT32

N = int(os.environ.get("REPRO_BENCH_BATCH_N", "1000000"))
SCALAR_SAMPLE = 40000
SEED = 2021
SPEEDUP_FLOOR = 16.0


def _inputs(target: str, rng) -> np.ndarray:
    """Exact target values across the non-special exp domain."""
    xs = rng.uniform(-80.0, 80.0, N)
    if target == "float32":
        return xs.astype(np.float32).astype(np.float64)
    return round_kernel(POSIT32)(xs)


def _sweep(target: str, rng) -> dict[str, float]:
    """Seconds per full sweep for each path (scalar extrapolated)."""
    lib = api.load("exp", target=target)
    xs = _inputs(target, rng)
    # warm-up: the first batch call compiles the gathered-coefficient
    # tables; that one-time cost is not part of steady-state throughput
    lib.evaluate_batch(xs[:8])

    times: dict[str, float] = {}
    # best-of-two: the first full-size pass can pay one-off page-fault
    # and allocator costs that are not steady-state throughput
    for _ in range(2):
        t0 = time.perf_counter()
        vals = lib.evaluate_batch(xs)
        dt = time.perf_counter() - t0
        times["batch"] = min(times.get("batch", dt), dt)

        t0 = time.perf_counter()
        bits = lib.evaluate_bits_batch(xs)
        dt = time.perf_counter() - t0
        times["batch_bits"] = min(times.get("batch_bits", dt), dt)

    sub = xs[:SCALAR_SAMPLE].tolist()
    ev = lib.evaluate
    t0 = time.perf_counter()
    scalar = [ev(x) for x in sub]
    times["scalar"] = (time.perf_counter() - t0) * (N / len(sub))

    # bit-identity spot check on the scalar sample (the exhaustive
    # differential suite lives in tests/test_batch_equivalence.py)
    got = vals[:SCALAR_SAMPLE]
    assert np.asarray(scalar).tobytes() == got.tobytes()
    eb = lib.evaluate_bits
    stride = max(1, N // 2000)
    for i in range(0, N, stride):
        assert bits[i] == eb(xs[i])
    return times


@benchmark("batch_throughput", suite="quick",
           floors={"speedup": SPEEDUP_FLOOR})
def run_batch_throughput() -> dict[str, float]:
    """Vectorized float32/posit32 exp sweeps vs the scalar loop (1e6
    inputs each)."""
    rng = np.random.default_rng(SEED)
    f32 = _sweep("float32", rng)
    p32 = _sweep("posit32", rng)

    gauges = {
        # float32 names predate the posit32 row; kept for the trajectory
        "speedup": f32["scalar"] / f32["batch"],
        "scalar_eps": N / f32["scalar"],
        "batch_eps": N / f32["batch"],
        "batch_bits_eps": N / f32["batch_bits"],
        "p32_speedup": p32["scalar"] / p32["batch"],
    }
    for path in ("scalar", "batch", "batch_bits"):
        gauges[f"throughput_melem_{path}_p32"] = N / p32[path] / 1e6
    metrics.gauge("batch.bench.n").set(float(N))
    for name, value in gauges.items():
        metrics.gauge(f"batch.bench.{name}").set(value)

    lines = [f"Batch evaluation throughput (exp, {N} inputs per target)",
             f"{'target':>8s} {'path':>22s} {'time_s':>8s} {'Melem/s':>9s}",
             "-" * 51]
    for target, times in (("float32", f32), ("posit32", p32)):
        for label, path in (("scalar loop (extrap)", "scalar"),
                            ("evaluate_batch", "batch"),
                            ("evaluate_bits_batch", "batch_bits")):
            lines.append(f"{target:>8s} {label:>22s} {times[path]:8.2f} "
                         f"{N / times[path] / 1e6:9.2f}")
    lines += [
        "",
        f"speedup (batch vs scalar): float32 {gauges['speedup']:.1f}x "
        f"(floor: {SPEEDUP_FLOOR:.0f}x), posit32 "
        f"{gauges['p32_speedup']:.1f}x",
    ]
    emit_report("batch_throughput.txt", "\n".join(lines) + "\n")
    return gauges


@pytest.mark.batch
@pytest.mark.benchmark(group="batch")
def test_batch_throughput(benchmark, report_dir):
    gauges = benchmark.pedantic(run_batch_throughput, rounds=1, iterations=1)

    assert gauges["speedup"] >= SPEEDUP_FLOOR, (
        f"batch speedup {gauges['speedup']:.1f}x fell below the "
        f"{SPEEDUP_FLOOR:.0f}x acceptance floor")
