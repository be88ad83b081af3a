"""The repo benchmark: correctly rounded float32/posit32 functions in-process
and served.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the workload and
prints its end-to-end metrics; ``--trace 1`` prints the per-layer metrics
(stage replays, serving hops, cold-start split, failure counts and the
tracing overhead) and writes the run's spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (lanes)
and ``metrics``.  Metric names, units and bounds are in BENCHMARK.json;
perfbench/METRICS.md says what each one measures and which layer should
move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, layers, workloads  # noqa: E402
from perfbench.common import (PAIRS, ROOT, ServiceProcess, Tally, Tracer,  # noqa: E402
                              median, score)

#: fresh interpreters (or service boots) per run; setup_s is their median
SETUP_REPS = 5


def probe(mode: str) -> tuple[float, dict]:
    """Spawn ``probe.py mode``; seconds from spawn to its result line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=60)
        # the publish probe's resource tracker outlives the probe
        common.end_group(proc.pid)
    if rc != 0:
        raise RuntimeError(f"probe {mode} failed")
    return dt, json.loads(line)


def boot_service(tag: str) -> tuple[ServiceProcess, float]:
    """Start the service; seconds from spawn until it has answered one
    256-lane request for every pair (the first timed call can follow)."""
    import numpy as np

    svc = ServiceProcess(tag)
    try:
        svc.wait_ping()
        xs = np.linspace(0.5, 1.5, 256)
        for pair in PAIRS:
            with svc.connect(*pair) as c:
                c.evaluate_bits_batch(xs)
        return svc, time.perf_counter() - svc.t_spawn
    except BaseException:
        svc.stop()
        raise


def boot_reps(reps: int) -> tuple[ServiceProcess, float]:
    """Boot ``reps`` services in turn, keep the last; returns it and the
    median set-up time."""
    times = []
    svc = None
    for i in range(reps):
        if svc is not None:
            svc.stop()
        svc, dt = boot_service(str(i))
        times.append(dt)
    return svc, median(times)


def in_process_checks(libs, checks, tally: Tally) -> None:
    """The check set through the batch engine, and again through the
    scalar ``Library.evaluate`` one lane at a time."""
    from repro.core.generator import target_bits

    import numpy as np

    for pair, (xs, want, known) in checks.items():
        lib = libs[pair]
        score(tally, lib.evaluate_bits_batch(xs), want, known,
              what=f"checks {pair}")
        fmt = lib.fn.spec.target
        got = np.array([target_bits(fmt, lib.evaluate(x))
                        for x in xs.tolist()], dtype=np.uint64)
        score(tally, got, want, known, what=f"scalar checks {pair}")


def served_checks(svc, checks, tally: Tally) -> None:
    """The check set through the service in 256-lane requests."""
    for pair, (xs, want, known) in checks.items():
        with svc.connect(*pair, chunk=workloads.REQ_LANES) as c:
            score(tally, c.evaluate_bits_batch(xs), want, known,
                  what=f"served checks {pair}")


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, args, libs, tally: Tally, tracer: Tracer,
            seconds: float, setup_reps: int) -> dict:
    """One measurement of workload ``name``: set-up, checks, timed loop."""
    checks = common.check_lanes(libs, args.seed)
    if name == "batch_bulk":
        setup = [probe("batch") for _ in range(setup_reps)]
        in_process_checks(libs, checks, tally)
        pools = workloads.scalar_pools(libs, args.seed)
        workloads.scalar_vs_batch(libs, pools, tally)
        arrays, swaps = workloads.bulk_inputs(libs, args.seed)
        res = workloads.run_batch_bulk(libs, arrays, swaps, seconds, tracer)
        res["setup_s"] = median([s for s, _ in setup])
        res["cold"] = setup[-1][1]
        res["rss_mb"] = rss_self_mb()
        return res
    svc, res_setup = boot_reps(setup_reps)
    try:
        served_checks(svc, checks, tally)
        pool = workloads.request_pool(libs, args.seed)
        res = workloads.run_serve_open(svc, pool, seconds, tally, tracer)
        res["rss_mb"] = svc.tree_rss_mb()
    finally:
        svc.stop()
    res["setup_s"] = res_setup
    return res


def end_to_end(res: dict, tally: Tally) -> dict:
    return {
        "setup_s": res["setup_s"],
        "rss_mb": res["rss_mb"],
        "fail_share": tally.failed / tally.attempted,
        "melem_s": res["melem_s"],
        "f32_p50_us": res["f32_p50_us"],
        "p32_p50_us": res["p32_p50_us"],
    }


def per_layer(args, api, libs, tally: Tally, tracer: Tracer) -> dict:
    """Traced run: the workload untraced and traced (a third of the time
    each) for the tracing overhead, then every layer replay."""
    quiet = Tracer(False)
    base = measure(args.workload, args, libs, tally, quiet,
                   args.seconds / 3, setup_reps=1)
    traced = measure(args.workload, args, libs, tally, tracer,
                     args.seconds / 3, setup_reps=1)
    out = {"trace.overhead_share": traced["op_mean_us"] /
           base["op_mean_us"] - 1.0,
           "tail.f32_p90_us": base["f32_p90_us"],
           "tail.p32_p90_us": base["p32_p90_us"]}

    out.update(layers.batch_stages(libs, args.seed, tracer))
    out["batch.call_us_256"] = layers.batch_call_256(libs, args.seed)
    pools = workloads.scalar_pools(libs, args.seed)
    out.update(layers.scalar_stages(libs, pools, tracer))

    out["serve.codec_us"] = layers.codec_us()
    out["serve.admit_ns"] = layers.admit_ns()
    out["serve.coalesce_wait_us"] = layers.coalesce_wait_us()
    req_pool = workloads.request_pool(libs, args.seed)
    svc = ServiceProcess("hops")
    try:
        out["serve.boot_ms"] = svc.wait_ping() * 1e3
        out["serve.ping_rtt_us"] = layers.ping_rtt_us(svc)
        out["serve.max_rps"], per_cpu, probes = workloads.max_rate(
            svc, req_pool, 9.0, tracer)
        out["serve.melem_per_cpu_s"] = per_cpu / 1e6
    finally:
        svc.stop()
    out["loadgen.late_ms_p99"] = max(p["late_p99_ms"] for p in probes)
    out.update(layers.worker_hop(libs, args.seed))

    _, cold = probe("batch")
    out["libm.load_ms"] = cold["load_ms"]
    out["batch.build_ms"] = cold["build_ms"]
    _, cold = probe("publish")
    out["serve.publish_ms"] = cold["publish_ms"]
    out["serve.attach_ms"] = cold["attach_ms"]

    out["serve.batch_lanes_mean"] = layers.coalesced_batch_mean(api, req_pool)

    out["wrong_lanes"] = tally.wrong
    out["shed_lanes"] = tally.shed
    out["error_lanes"] = tally.error
    out["trace.spans"] = len(tracer.spans)
    tracer.dump(common.OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return out


def describe(res: dict, tally: Tally) -> None:
    """Human-readable lines before the result: sample counts, phases."""
    print(f"ops: f32 {res['f32_ops']}  p32 {res['p32_ops']}  "
          f"p90_us: f32 {res['f32_p90_us']:.6g}  p32 {res['p32_p90_us']:.6g}  "
          f"lanes attempted {tally.attempted}  wrong {tally.wrong} "
          f"(known {tally.wrong_known})  shed {tally.shed}  "
          f"error {tally.error}")
    for ph in res.get("phases", []):
        print("phase " + " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in ph.items()))
    for note in tally.notes:
        print(f"note: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    common.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Started in the background of a non-interactive shell, this process
    # inherits SIGINT ignored, and an ignored signal stays ignored across
    # exec: the service would ignore the SIGINT that shuts it down, and
    # every stop would wait out its timeout and kill it, orphaning its
    # worker.  A handler here is reset to the default in each child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return run(args, spec)
    finally:
        common.end_descendants()


def run(args, spec: dict) -> int:
    os.chdir(ROOT)
    api = common.import_program()
    libs = {pair: api.load(*pair) for pair in PAIRS}
    tally = Tally()
    tracer = Tracer(args.trace == 1)
    if args.trace:
        values = per_layer(args, api, libs, tally, tracer)
        declared = spec["per_layer"]
    else:
        res = measure(args.workload, args, libs, tally, tracer,
                      args.seconds, SETUP_REPS)
        describe(res, tally)
        values = end_to_end(res, tally)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:32s} {v:14.6g} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
