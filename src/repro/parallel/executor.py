"""Process-pool task executor with faithful failures and merged metrics.

:func:`run_tasks` maps a module-level task function over a list of
picklable payloads.  Three properties distinguish it from a bare
``ProcessPoolExecutor.map``:

* **Serial is the identity.**  With one worker (the default everywhere)
  the tasks run in-process in order — the exact code path a
  ``workers=None`` caller always had, so enabling the knob can only
  change wall-clock, never results.
* **Failures carry the original traceback.**  A task that raises inside
  a worker fails the whole run promptly with a :class:`ShardError`
  whose message embeds the worker-side traceback text; pending shards
  are cancelled, nothing hangs, and no shard is silently dropped.
* **Observability survives the fork.**  Each worker detaches the
  inherited trace sink (so it cannot interleave writes into the
  parent's JSONL file), resets the metrics registry, and returns its
  :func:`repro.obs.metrics.snapshot` with the result; the parent
  absorbs every shard's snapshot back into the live registry, so
  counters and histograms match the serial run's.  The parent wraps the
  run in a ``parallel.run`` span and emits a ``parallel.shard`` point
  event per completed shard.

Workers are forked where the platform allows (cheap, inherits imports)
and spawned otherwise.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

from repro.cache import flush_active, refresh_active
from repro.obs import event, metrics, span
from repro.obs.events import detach as _detach_trace
from repro.parallel.shards import resolve_workers

__all__ = ["ShardError", "clear_shared_pools", "discard_shared_pool",
           "run_tasks", "shared_pool"]


class ShardError(RuntimeError):
    """A worker task failed; the message embeds the original traceback."""

    def __init__(self, label: str, index: int, tb_text: str):
        self.label = label
        self.index = index
        self.tb_text = tb_text
        super().__init__(
            f"{label}: shard {index} failed in worker\n"
            f"--- worker traceback ---\n{tb_text}")


def _call_captured(task: Callable[[Any], Any], payload: Any) -> tuple:
    """Worker-side trampoline: isolate obs state, capture any failure."""
    _detach_trace()
    metrics.reset()
    t0 = time.perf_counter()
    try:
        result = task(payload)
    except Exception:
        return ("err", traceback.format_exc())
    finally:
        # publish this worker's cache segments (shard-local, atomically
        # renamed into place) so the parent's refresh sees them
        flush_active()
    return ("ok", result, metrics.snapshot(),
            time.perf_counter() - t0)


def _context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------------
# shared (memoized) pools — fork once, reuse across calls
#
# ROADMAP's parallel-scaling regression traced to fork/pickle overhead
# dominating the now-fast serial path: every run_tasks call paid a fresh
# pool.  Pools memoized here are keyed by worker count and live until
# discarded, so repeated run_tasks(reuse_pool=True) calls — validate
# passes, back-to-back benchmarks — amortize the fork.  The
# ``workers.pool_reuse`` counter records every amortized hit.

_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The memoized pool of ``workers`` processes, created on first use.

    Increments ``workers.pool_reuse`` on every memo hit.
    """
    pool = _SHARED_POOLS.get(workers)
    if pool is not None:
        metrics.counter("workers.pool_reuse").inc()
        return pool
    flush_active()
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=_context())
    _SHARED_POOLS[workers] = pool
    metrics.counter("workers.pool_created").inc()
    return pool


def discard_shared_pool(workers: int, *, cancel: bool = False) -> None:
    """Shut down and forget one memoized pool (no-op when absent)."""
    pool = _SHARED_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=not cancel, cancel_futures=cancel)


def clear_shared_pools() -> None:
    """Shut down every memoized pool (tests; interpreter exit)."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        # wait: returning before the workers exit races the stdlib's own
        # atexit hook (it pokes a pipe this shutdown already closed)
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(clear_shared_pools)


def run_tasks(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int | str | None = None,
    label: str = "parallel",
    on_result: Callable[[int, Any], None] | None = None,
    reuse_pool: bool = False,
) -> list[Any]:
    """Run ``task`` over every payload; results in payload order.

    ``task`` must be a module-level function (workers import it by
    qualified name) and payloads/results must pickle.  ``on_result`` is
    invoked as ``(index, result)`` in *completion* order — the hook for
    checkpointing finished shards while others still run — while the
    returned list always follows payload order.

    ``reuse_pool=True`` draws workers from the memoized
    :func:`shared_pool` instead of forking a fresh pool, so back-to-back
    calls (benchmark sweeps, the serving layer) pay the fork once; the
    pool survives the call and is torn down at interpreter exit or by
    :func:`clear_shared_pools`.  On failure the shared pool is discarded
    (its workers may hold cancelled state), so the next call re-forks.
    """
    n = len(payloads)
    n_workers = min(resolve_workers(workers), max(1, n))
    results: list[Any] = [None] * n
    with span("parallel.run", label=label, workers=n_workers, tasks=n):
        if n_workers <= 1:
            for i, payload in enumerate(payloads):
                results[i] = task(payload)
                if on_result is not None:
                    on_result(i, results[i])
            return results

        # flush pending cache writes so forked workers inherit a clean
        # store (no double-publishing of the parent's pending records)
        flush_active()
        if reuse_pool:
            pool = shared_pool(n_workers)
        else:
            pool = ProcessPoolExecutor(max_workers=n_workers,
                                       mp_context=_context())
        t_start = time.perf_counter()
        busy_s = 0.0
        futures = {pool.submit(_call_captured, task, p): i
                   for i, p in enumerate(payloads)}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
                for fut in done:
                    i = futures[fut]
                    exc = fut.exception()
                    if exc is not None:
                        # pool-level failure (lost worker, unpicklable
                        # result, ...) — no worker traceback exists
                        raise ShardError(
                            label, i, "".join(traceback.format_exception(
                                type(exc), exc, exc.__traceback__)))
                    status = fut.result()
                    if status[0] == "err":
                        raise ShardError(label, i, status[1])
                    _, result, snap, shard_s = status
                    metrics.absorb(snap)
                    busy_s += shard_s
                    metrics.histogram("parallel.shard_s").observe(shard_s)
                    event("parallel.shard", label=label, index=i,
                          shard_s=round(shard_s, 6))
                    results[i] = result
                    if on_result is not None:
                        on_result(i, result)
        except BaseException:
            if reuse_pool:
                discard_shared_pool(n_workers, cancel=True)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        if not reuse_pool:
            pool.shutdown(wait=True)
        # worker-utilization gauges for `repro report`: what share of
        # the pool's capacity (workers x wall clock) ran task code —
        # low utilization means fork/pickle overhead or skew dominates.
        # Gauges/histograms only: the serial-vs-parallel *counter*
        # equality contract stays intact.
        wall_s = time.perf_counter() - t_start
        metrics.gauge("parallel.pool.workers").set(float(n_workers))
        metrics.gauge("parallel.pool.busy_s").set(busy_s)
        metrics.gauge("parallel.pool.wall_s").set(wall_s)
        if wall_s > 0.0:
            metrics.gauge("parallel.pool.utilization").set(
                busy_s / (n_workers * wall_s))
        # merge the segments the workers published (checkpoint-manifest
        # pattern: private files + atomic rename + parent re-scan)
        refresh_active()
    return results
