"""Driver for generating the shipped 32-bit libraries.

This is the sampled 32-bit instantiation of the pipeline (DESIGN.md §3):
for each function it assembles the input set — representable-value-
proportional random sample, exhaustive pools around every special-case
boundary and structural point, and mined hard cases (inputs whose exact
result grazes a rounding boundary; see :mod:`repro.eval.hardcases`) —
runs :func:`repro.core.validate.generate_validated` with fresh validation
sets, performs a final independent residual check, and freezes the result
into a data module.

The per-function budgets live in :data:`GEN_SETTINGS`; ``quick=True``
divides the sample sizes for smoke tests.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass

from repro.core.generator import FunctionSpec, GeneratedFunction
from repro.core.intervals import TargetFormat
from repro.core.piecewise import PiecewiseConfig
from repro.core.sampling import boundary_values, sample_values
from repro.core.validate import generate_validated, validate
from repro.eval.hardcases import mine_hard_cases
from repro.libm.serialize import (function_to_dict, render_certificate,
                                  render_module)
from repro.obs import span
from repro.parallel import Checkpoint, resolve_workers, run_tasks
from repro.rangereduction.domains import boundary_centers, sampling_domain
from repro.rangereduction import RangeReduction, reduction_for

__all__ = ["GenSettings", "GEN_SETTINGS", "generate_one", "generate_library"]


@dataclass
class GenSettings:
    """Sampling and piecewise budgets for one function."""

    base: int = 40_000          # ordinal-uniform generation sample
    validation: int = 25_000    # fresh validation sample per round
    hard_candidates: int = 50_000
    hard_keep: int = 1_500
    boundary_radius: int = 192
    max_index_bits: int = 10
    max_degree: int | None = None   # None = range reduction default
    #: outer-loop budget: rounds of fresh validation, and how many
    #: consecutive clean fresh rounds acceptance requires
    rounds: int = 12
    clean_rounds: int = 2
    final_check: int = 20_000


GEN_SETTINGS: dict[str, GenSettings] = {
    "ln": GenSettings(),
    "log2": GenSettings(),
    "log10": GenSettings(),
    "exp": GenSettings(),
    "exp2": GenSettings(),
    "exp10": GenSettings(),
    "sinh": GenSettings(max_index_bits=8),
    "cosh": GenSettings(max_index_bits=8),
    "sinpi": GenSettings(max_index_bits=8),
    "cospi": GenSettings(max_index_bits=8),
}


def generate_one(
    name: str,
    fmt: TargetFormat,
    *,
    seed: int = 2021,
    quick: bool = False,
    settings: GenSettings | None = None,
    scale: int = 1,
    log=print,
    workers: int | str | None = None,
    capture: dict | None = None,
    extra_inputs: list[float] | None = None,
) -> tuple[GeneratedFunction, dict]:
    """Run the sampled pipeline for one function; returns (fn, extra
    stats).  ``scale`` divides every sample budget (time/quality knob);
    ``quick`` is the x8 smoke-test shortcut; ``workers`` parallelizes
    the oracle-comparison phases (validation rounds and the final
    residual check) without changing any result.  ``capture`` collects
    the accepted function's LP-pinning samples for certificate emission
    (see :func:`repro.core.generator.generate`).  ``extra_inputs`` are
    additional representable inputs forced into the generation
    constraint set — the adversarial-corpus feedback loop: inputs a
    frozen corpus proved wrong join the LP constraints of the next
    generation, which therefore cannot ship the same wrong rounding."""
    cfg = settings or GEN_SETTINGS[name]
    div = 8 if quick else max(1, scale)
    rng = random.Random(seed)
    t0 = time.perf_counter()

    kwargs = {}
    if cfg.max_degree is not None:
        kwargs["max_degree"] = cfg.max_degree
    rr = reduction_for(name, fmt, **kwargs)
    lo, hi = sampling_domain(name, fmt, rr)
    log(f"[{name}] domain [{lo!r}, {hi!r}]")

    with span("genlib.inputs", fn=name):
        inputs = sample_values(fmt, cfg.base // div, rng, lo, hi)
        inputs += boundary_values(fmt, boundary_centers(name, rr, lo, hi),
                                  cfg.boundary_radius)
        hard_pool = sample_values(fmt, cfg.hard_candidates // div,
                                  random.Random(seed + 1), lo, hi)
        hard_pool = [x for x in hard_pool if rr.special(x) is None]
        inputs += mine_hard_cases(name, fmt, hard_pool, cfg.hard_keep // div)
        inputs += [x for x in rr.hard_input_candidates() if lo <= x <= hi]
        if extra_inputs:
            inputs += [x for x in extra_inputs if lo <= x <= hi]
    log(f"[{name}] {len(inputs)} generation inputs "
        f"({time.perf_counter() - t0:.0f}s incl. hard-case mining)")

    def fresh_validation(round_no: int) -> list[float]:
        s = seed + 1000 + 17 * round_no
        val = sample_values(fmt, cfg.validation // div, random.Random(s),
                            lo, hi)
        pool = sample_values(fmt, cfg.hard_candidates // (2 * div),
                             random.Random(s + 1), lo, hi)
        pool = [x for x in pool if rr.special(x) is None]
        val += mine_hard_cases(name, fmt, pool, cfg.hard_keep // (2 * div))
        return val

    spec = FunctionSpec(name, fmt, rr,
                        PiecewiseConfig(max_index_bits=cfg.max_index_bits))
    with span("genlib.validated", fn=name):
        fn, folded = generate_validated(spec, inputs, fresh_validation,
                                        max_rounds=cfg.rounds,
                                        clean_rounds=cfg.clean_rounds,
                                        workers=workers, capture=capture)
    log(f"[{name}] generated: {fn.stats.per_fn} "
        f"reduced={fn.stats.reduced_count} folded-back={folded} "
        f"({time.perf_counter() - t0:.0f}s)")

    check = sample_values(fmt, cfg.final_check // div,
                          random.Random(seed + 4), lo, hi)
    with span("genlib.final_check", fn=name, n=len(check)):
        misses = validate(fn, check, workers=workers)
    extra = {
        "final_check": {"n": len(check), "misses": len(misses)},
        "counterexamples_folded": folded,
        "total_time_s": time.perf_counter() - t0,
    }
    log(f"[{name}] final residual check: {len(misses)}/{len(check)} misses "
        f"({time.perf_counter() - t0:.0f}s total)")
    return fn, extra


def _render_one(name: str, fmt: TargetFormat, seed: int, quick: bool,
                scale: int, settings: GenSettings | None,
                workers: int | str | None, log,
                extra_inputs: list[float] | None = None) -> tuple[str, str]:
    """Generate one function; returns (module source, certificate JSON).

    The certificate is built from the run's captured LP-pinning samples
    and self-verified with the trusted checker before freeze
    (:func:`repro.libm.serialize.render_certificate`).
    """
    capture: dict = {}
    fn, extra = generate_one(name, fmt, seed=seed, quick=quick,
                             settings=settings, scale=scale, log=log,
                             workers=workers, capture=capture,
                             extra_inputs=extra_inputs)
    data = function_to_dict(fn)
    data["stats"].update(extra)
    cert_text, cstats = render_certificate(data, capture)
    log(f"[{name}] certificate: {cstats.certified}/{cstats.slots} slots "
        f"certified, {cstats.points} points")
    return render_module(data), cert_text


def _generate_one_task(payload: tuple) -> tuple[str, str, str]:
    """Worker task for the per-function fan-out: (name, module source,
    certificate JSON).

    Runs in its own process; the inner validation stays serial (the
    pool is already one process per function) and logging goes to the
    worker's stdout with a function prefix.
    """
    name, fmt, seed, quick, scale, settings, extra_inputs = payload
    source, cert = _render_one(name, fmt, seed, quick, scale, settings,
                               workers=None, log=print,
                               extra_inputs=extra_inputs)
    return name, source, cert


def generate_library(
    names: list[str],
    fmt: TargetFormat,
    out_dir: pathlib.Path,
    *,
    quick: bool = False,
    seed: int = 2021,
    scale: int = 1,
    log=print,
    workers: int | str | None = None,
    checkpoint: pathlib.Path | str | None = None,
    settings: GenSettings | None = None,
    extra_inputs: dict[str, list[float]] | None = None,
) -> None:
    """Generate and freeze a set of functions into ``out_dir``.

    ``workers`` fans the functions out across a process pool (each
    function's pipeline is seeded independently, so any schedule
    produces byte-identical modules; with a single pending function the
    parallelism moves inside it, onto the validation chunks instead).
    ``checkpoint`` makes the run resumable: every finished function
    is saved as an atomic JSON shard, a restarted run regenerates only
    the missing ones, and a manifest pins target/seed/budgets so stale
    checkpoints cannot leak into a differently configured run.
    ``settings`` overrides :data:`GEN_SETTINGS` for every
    function (small budgets for tests and sweeps).  ``extra_inputs``
    maps function names to additional generation inputs (see
    :func:`generate_one`) — typically the inputs of the shipped
    adversarial corpora (``tools/generate_float32.py --adversarial``).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    init = out_dir / "__init__.py"
    if not init.exists():
        init.write_text('"""Frozen coefficient tables (generated)."""\n')

    extra_inputs = extra_inputs or {}
    ckpt = None
    if checkpoint is not None:
        ckpt = Checkpoint(checkpoint, manifest={
            "target": str(fmt), "seed": seed, "quick": bool(quick),
            "scale": scale,
            # fingerprint, so a checkpoint taken without (or with other)
            # corpus feedback cannot leak into this run
            "extra_inputs": {n: len(v) for n, v in sorted(
                extra_inputs.items()) if v},
        })

    sources: dict[str, str] = {}
    certs: dict[str, str | None] = {}
    pending: list[str] = []
    for name in names:
        saved = ckpt.load(name) if ckpt is not None else None
        if saved is not None:
            sources[name] = saved["source"]
            certs[name] = saved.get("cert")
            log(f"[{name}] resumed from checkpoint")
        else:
            pending.append(name)

    n_workers = resolve_workers(workers)
    if n_workers > 1 and len(pending) > 1:
        payloads = [(name, fmt, seed, quick, scale, settings,
                     extra_inputs.get(name))
                    for name in pending]

        def _save(index: int, result: tuple[str, str, str]) -> None:
            name, source, cert = result
            sources[name] = source
            certs[name] = cert
            if ckpt is not None:
                ckpt.save(name, {"source": source, "cert": cert})

        run_tasks(_generate_one_task, payloads, workers=n_workers,
                  label="genlib", on_result=_save)
    else:
        for name in pending:
            source, cert = _render_one(name, fmt, seed, quick, scale,
                                       settings, workers=workers, log=log,
                                       extra_inputs=extra_inputs.get(name))
            sources[name] = source
            certs[name] = cert
            if ckpt is not None:
                ckpt.save(name, {"source": source, "cert": cert})

    for name in names:
        path = out_dir / f"{name}.py"
        path.write_text(sources[name])
        if certs.get(name) is not None:
            (out_dir / f"{name}.cert.json").write_text(certs[name])
        log(f"[{name}] wrote {path} ({path.stat().st_size // 1024} KB)")
