"""Per-layer replays for the traced run.

Each layer is timed from outside, through its public functions, on the
benchmark's own seeded inputs:

* batch stages: the engine's special -> reduce -> horner -> compensate ->
  round sequence, replayed one 32768-lane block (the engine's default
  block) at a time through ``rr.special_batch`` / ``reduce_batch`` /
  ``compile_approx`` / ``compensate_batch`` / ``bits_kernel``;
* scalar stages: ``rr.special`` / ``reduce`` / ``ApproxFunc.compiled`` /
  ``compensate`` / ``target_rounder``, against one ``Library.evaluate``;
* serving hops: codec, admission, ping, coalescer wait, worker round trip
  and in-process worker compute.

Both stage replays are checked bit for bit against the one-call result;
a mismatch raises, since the layer figures would then describe a
different program.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from perfbench.common import (GROUPS, PAIRS, TAG, InputSpace, Tracer,
                              make_values, median)

BLOCK = 32768
STAGES = ("special", "reduce", "horner", "compensate", "round")
SCALAR_STAGES = ("special", "reduce", "poly", "compensate", "round")


def _timer_cost_ns() -> float:
    pc = time.perf_counter_ns
    return median([-(pc() - pc()) for _ in range(2000)])


def batch_stages(libs, seed: int, tracer: Tracer, reps: int = 3) -> dict:
    """``batch.<stage>_ns.<group>``: ns per element per stage, over blocks
    of which one in four carries ~1% special lanes."""
    from repro.batch.kernels import compile_approx
    from repro.batch.rounding import bits_kernel

    pc = time.perf_counter_ns
    rng = np.random.default_rng([seed, 4])
    out = {}
    for group, pairs in GROUPS.items():
        totals = {s: [] for s in STAGES}
        plans = []
        for pair in pairs:
            lib = libs[pair]
            rr = lib.fn.spec.rr
            kernels = [compile_approx(lib.fn.approx[n]) for n in rr.fn_names]
            bits = bits_kernel(lib.fn.spec.target)
            space = InputSpace(lib)
            for b in range(4):
                xs = make_values(space, rng, BLOCK, specials=(b == 3))
                plans.append((rr, kernels, bits, xs,
                              lib.evaluate_bits_batch(xs)))
        for _ in range(reps):
            acc = dict.fromkeys(STAGES, 0)
            lanes = 0
            for rr, kernels, bits, xs, want in plans:
                with tracer.span(f"batch.replay.{group}"):
                    t = [pc()]
                    with tracer.span("batch.special"):
                        mask, vals = rr.special_batch(xs)
                        if mask.any():
                            comp = np.empty_like(xs)
                            comp[mask] = vals
                            rest = ~mask
                            xr = xs[rest]
                        else:
                            comp = rest = None
                            xr = xs
                    t.append(pc())
                    with tracer.span("batch.reduce"):
                        r, ctx = rr.reduce_batch(xr)
                    t.append(pc())
                    with tracer.span("batch.horner"):
                        values = tuple(k(r) for k in kernels)
                    t.append(pc())
                    with tracer.span("batch.compensate"):
                        c = rr.compensate_batch(values, ctx)
                        if rest is None:
                            comp = c
                        else:
                            comp[rest] = c
                    t.append(pc())
                    with tracer.span("batch.round"):
                        got = bits(comp)
                    t.append(pc())
                if not np.array_equal(got, want):
                    raise RuntimeError(f"batch stage replay of {group} is "
                                       "not bit-identical to the one call")
                for i, s in enumerate(STAGES):
                    acc[s] += t[i + 1] - t[i]
                lanes += len(xs)
            for s in STAGES:
                totals[s].append(acc[s] / lanes)
        for s in STAGES:
            out[f"batch.{s}_ns.{group}"] = median(totals[s])
    return out


def batch_call_256(libs, seed: int, reps: int = 100) -> float:
    """Mean over pairs of the median time of one 256-lane batch call."""
    rng = np.random.default_rng([seed, 5])
    pc = time.perf_counter
    per_pair = []
    for pair in PAIRS:
        lib = libs[pair]
        xs = make_values(InputSpace(lib), rng, 256, specials=False)
        lib.evaluate_bits_batch(xs)
        ts = []
        for _ in range(reps):
            t0 = pc()
            lib.evaluate_bits_batch(xs)
            ts.append(pc() - t0)
        per_pair.append(median(ts) * 1e6)
    return float(np.mean(per_pair))


def scalar_stages(libs, pools, tracer: Tracer, reps: int = 5) -> dict:
    """``scalar.<stage>_ns.<t>`` and ``scalar.unattributed_ns.<t>``: mean
    ns per call per stage, minus the timer's own cost."""
    from repro.core.generator import target_rounder

    from perfbench.workloads import same_doubles

    pc = time.perf_counter_ns
    cost = _timer_cost_ns()
    out = {}
    for tag in ("f32", "p32"):
        pairs = [p for p in PAIRS if TAG[p[1]] == tag]
        per_rep = {s: [] for s in SCALAR_STAGES + ("call",)}
        for _ in range(reps):
            acc = dict.fromkeys(SCALAR_STAGES + ("call",), 0)
            n = 0
            for pair in pairs:
                lib = libs[pair]
                rr = lib.fn.spec.rr
                funcs = [lib.fn.approx[name].compiled for name in rr.fn_names]
                rnd = target_rounder(lib.fn.spec.target)
                ev = lib.evaluate
                xs = [x for run in pools[pair][:4] for x in run[0]]
                got = []
                with tracer.span(f"scalar.replay.{tag}"):
                    for x in xs:
                        t0 = pc()
                        s = rr.special(x)
                        t1 = pc()
                        if s is None:
                            r, ctx = rr.reduce(x)
                            t2 = pc()
                            vals = tuple(f(r) for f in funcs)
                            t3 = pc()
                            c = rr.compensate(vals, ctx)
                            t4 = pc()
                        else:
                            c = s
                            t2 = t3 = t4 = t1
                        y = rnd(c)
                        t5 = pc()
                        ev(x)
                        t6 = pc()
                        acc["special"] += t1 - t0
                        acc["reduce"] += t2 - t1
                        acc["poly"] += t3 - t2
                        acc["compensate"] += t4 - t3
                        acc["round"] += t5 - t4
                        acc["call"] += t6 - t5
                        got.append(y)
                want = np.array([ev(x) for x in xs])
                if not same_doubles(np.array(got), want).all():
                    raise RuntimeError(f"scalar stage replay of {pair} is "
                                       "not bit-identical to evaluate")
                n += len(xs)
            for s in per_rep:
                per_rep[s].append(acc[s] / n - cost)
        stage_sum = 0.0
        for s in SCALAR_STAGES:
            out[f"scalar.{s}_ns.{tag}"] = median(per_rep[s])
            stage_sum += out[f"scalar.{s}_ns.{tag}"]
        out[f"scalar.unattributed_ns.{tag}"] = median(per_rep["call"]) - \
            stage_sum
    return out


def codec_us(reps: int = 2000) -> float:
    """pack/unpack of one 256-lane request and its reply."""
    from repro.serve import protocol as p

    xs = np.linspace(0.5, 1.5, 256)
    ys = xs.view(np.uint64).copy()
    pc = time.perf_counter
    ts = []
    for i in range(reps):
        t0 = pc()
        p.unpack_request(p.pack_request(i, p.OP_EVAL_BITS, "exp", "float32",
                                        xs))
        p.unpack_reply(p.pack_reply(i, p.STATUS_OK, data=ys), p.OP_EVAL_BITS)
        ts.append(pc() - t0)
    return median(ts) * 1e6


def admit_ns(n: int = 20000) -> float:
    """One ``AdmissionController.admit`` + ``release`` pair."""
    from repro.serve.admission import AdmissionController

    adm = AdmissionController()
    pc = time.perf_counter_ns
    reps = []
    for _ in range(5):
        t0 = pc()
        for _ in range(n):
            adm.admit(1, 256)
            adm.release(1, 256)
        reps.append((pc() - t0) / n)
    return median(reps)


def ping_rtt_us(svc, reps: int = 300) -> float:
    pc = time.perf_counter
    with svc.connect("exp", "float32") as c:
        c.ping()
        ts = []
        for _ in range(reps):
            t0 = pc()
            c.ping()
            ts.append(pc() - t0)
    return median(ts) * 1e6


def coalesce_wait_us(reps: int = 40) -> float:
    """A lone ``Coalescer.submit`` until its dispatch, with a stub
    dispatch, at the service's default batching settings."""
    from repro.serve.coalesce import Coalescer
    from repro.serve.protocol import OP_EVAL_BITS

    async def go():
        seen = []

        async def dispatch(key, op, batch):
            seen.append(time.perf_counter())
            return batch

        co = Coalescer(dispatch)
        data = np.zeros(256)
        waits = []
        for _ in range(reps):
            t0 = time.perf_counter()
            await co.submit("exp:float32", OP_EVAL_BITS, data)
            waits.append(seen[-1] - t0)
        return median(waits) * 1e6

    return asyncio.run(go())


def worker_hop(libs, seed: int, reps: int = 20) -> dict:
    """``WorkerPool.run_sync`` round trip vs the same evaluation done
    in-process on an attached arena, at 256 and 65536 lanes."""
    from repro.serve import tables
    from repro.serve.protocol import OP_EVAL_BITS
    from repro.serve.workers import WorkerPool

    rng = np.random.default_rng([seed, 6])
    pairs = [("exp", "float32"), ("exp", "posit32"), ("cospi", "float32"),
             ("ln", "posit32")]
    arena = tables.publish(pairs)
    pool = att = None
    out = {}
    try:
        pool = WorkerPool(arena.name, arena.content_hash, workers=1)
        att = tables.attach(arena.name, expect_hash=arena.content_hash)
        pc = time.perf_counter
        for label, n in (("256", 256), ("64k", 65536)):
            rtt, comp = [], []
            for pair in pairs:
                key = tables.arena_key(*pair)
                xs = make_values(InputSpace(libs[pair]), rng, n, False)
                want = libs[pair].evaluate_bits_batch(xs)
                bf = att.batch_function(key)
                pool.run_sync(key, OP_EVAL_BITS, xs)
                for _ in range(reps):
                    t0 = pc()
                    got = pool.run_sync(key, OP_EVAL_BITS, xs)
                    t1 = pc()
                    bf.evaluate_bits_many(xs)
                    t2 = pc()
                    rtt.append(t1 - t0)
                    comp.append(t2 - t1)
                if not np.array_equal(got, want):
                    raise RuntimeError(f"worker reply for {key} differs")
            out[f"serve.worker_rtt_us_{label}"] = median(rtt) * 1e6
            out[f"serve.worker_compute_us_{label}"] = median(comp) * 1e6
            out[f"serve.ipc_us_{label}"] = (median(rtt) - median(comp)) * 1e6
    finally:
        if pool is not None:
            pool.close()
        if att is not None:
            att.close()
        arena.close()
    return out


def coalesced_batch_mean(api, pool) -> float:
    """Mean coalesced batch size of an in-process ``api.serve`` fed
    ``serve_open``'s traffic for 1.5 s, read from its
    ``serve.coalesce.batch`` histogram."""
    from repro.obs import metrics

    from perfbench.workloads import FIXED_RATE, OpenLoop

    metrics.reset()
    with api.serve(None, targets=("float32", "posit32"), workers=1) as svc:
        loop = OpenLoop(svc.address, pool, Tracer(False))
        try:
            loop.run(FIXED_RATE, 1.5)
        finally:
            loop.close()
        h = metrics.snapshot()["histograms"].get("serve.coalesce.batch")
    return h["sum"] / h["count"] if h else 0.0
