"""The top-level library generator (Algorithm 1, ``CorrectPolys``).

``generate`` drives the whole RLIBM-32 pipeline for one elementary
function and one target representation:

1. the special-case layer filters the inputs that need no approximation;
2. the oracle produces the correctly rounded result for each remaining
   input, and Algorithm 1 turns it into a rounding interval in H;
3. Algorithm 2 pushes the intervals through range reduction into merged
   reduced intervals for every reduced elementary function f_i;
4. Algorithm 3 + 4 synthesize piecewise polynomials per f_i.

The result, :class:`GeneratedFunction`, is a runnable correctly rounded
implementation: ``evaluate(x)`` performs special cases, range reduction,
bit-pattern sub-domain lookup, Horner evaluation, output compensation and
the final rounding to T — the same sequence the shipped
:mod:`repro.libm` functions execute from frozen tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.cache import active_store
from repro.core.cegpoly import CEGWarmState
from repro.core.intervals import TargetFormat, target_rounding_interval
from repro.core.piecewise import ApproxFunc, PiecewiseConfig, gen_approx_func
from repro.core.reduced import ReducedConstraintSet, reduced_intervals
from repro.fp.float32 import f32_round, f32_to_bits
from repro.fp.formats import FLOAT32, FloatFormat
from repro.obs import event, timed_span
from repro.oracle.mpmath_oracle import Oracle, default_oracle
from repro.rangereduction.base import RangeReduction

__all__ = ["FunctionSpec", "GenStats", "GeneratedFunction",
           "GenerationError", "generate", "target_rounder"]


class GenerationError(RuntimeError):
    """Piecewise polynomial generation failed within the budget."""


@dataclass
class FunctionSpec:
    """What to generate: function + target + range reduction + budgets."""

    name: str
    target: TargetFormat
    rr: RangeReduction
    piecewise: PiecewiseConfig = field(default_factory=PiecewiseConfig)


@dataclass
class GenStats:
    """Table-3-style generation statistics.

    All wall times are measured with ``time.perf_counter`` through the
    :func:`repro.obs.timed_span` API, so the same numbers feed this
    struct (→ ``python -m repro table3`` and the frozen data modules)
    and — when ``REPRO_TRACE`` is set — the JSONL trace that
    ``python -m repro stats`` renders.
    """

    gen_time_s: float = 0.0
    oracle_time_s: float = 0.0
    input_count: int = 0
    special_count: int = 0
    reduced_count: int = 0
    #: per reduced function: {"npolys", "index_bits", "degree", "terms"}
    per_fn: dict[str, dict[str, int]] = field(default_factory=dict)
    #: wall time per pipeline phase: "oracle", "reduced", "piecewise"
    phase_s: dict[str, float] = field(default_factory=dict)


def target_rounder(fmt: TargetFormat) -> Callable[[float], float]:
    """Fast final-rounding function RN_T for the runtime hot path."""
    if fmt is FLOAT32:
        return f32_round
    return fmt.round_double


def target_bits(fmt: TargetFormat, v: float) -> int:
    """Bit pattern of the T-rounded double ``v``."""
    if fmt is FLOAT32:
        return f32_to_bits(v)
    return fmt.from_double(v)


class GeneratedFunction:
    """A runnable correctly rounded implementation of one function."""

    def __init__(self, spec: FunctionSpec, approx: dict[str, ApproxFunc],
                 stats: GenStats):
        self.spec = spec
        self.approx = approx
        self.stats = stats
        self._round = target_rounder(spec.target)
        # pre-resolve the per-fn approximations in compensation order
        self._funcs = [approx[name] for name in spec.rr.fn_names]
        self.evaluate = self._build_evaluate()

    def _build_evaluate(self):
        """Pre-bound hot path: special cases, reduce, compiled piecewise
        evaluation, compensate, final rounding — the Python analogue of
        the straight-line C functions RLIBM-32 emits.  Each range
        reduction supplies its own fully inlined variant."""
        compiled = [af.compiled for af in self._funcs]
        evaluate = self.spec.rr.make_fast_evaluate(compiled, self._round)
        evaluate.__doc__ = "f(x) correctly rounded to T, as a double."
        return evaluate

    @property
    def name(self) -> str:
        return self.spec.name

    def evaluate_bits(self, x: float) -> int:
        """f(x) correctly rounded to T, as a T bit pattern."""
        rr = self.spec.rr
        s = rr.special(x)
        if s is not None:
            return target_bits(self.spec.target, s)
        r, ctx = rr.reduce(x)
        vals = tuple(af.compiled(r) for af in self._funcs)
        return target_bits(self.spec.target, rr.compensate(vals, ctx))

    @property
    def batch(self):
        """The vectorized twin of this function (built lazily, cached).

        A :class:`repro.batch.engine.BatchFunction` running the same
        pipeline on float64 arrays, bit-identical per element.
        """
        bf = self.__dict__.get("_batch")
        if bf is None:
            from repro.batch.engine import BatchFunction
            from repro.batch.kernels import compile_approx

            bf = self.__dict__["_batch"] = BatchFunction(
                self.spec.rr, [compile_approx(af) for af in self._funcs],
                self.spec.target)
        return bf

    def evaluate_many(self, xs):
        """Batch ``evaluate``: float64 array in, rounded doubles out."""
        return self.batch.evaluate_many(xs)

    def evaluate_bits_many(self, xs):
        """Batch ``evaluate_bits``: float64 array in, uint64 patterns out."""
        return self.batch.evaluate_bits_many(xs)

    def __call__(self, x: float) -> float:
        return self.evaluate(x)


def generate(
    spec: FunctionSpec,
    inputs: Iterable[float],
    oracle: Oracle = default_oracle,
    warm: CEGWarmState | None = None,
    capture: dict | None = None,
) -> GeneratedFunction:
    """Run the full pipeline for ``spec`` over the given inputs.

    ``inputs`` are doubles that are exact values of the target format
    (from :mod:`repro.core.sampling`).  ``warm`` optionally carries CEG
    state across repeated generations of the same spec (the
    validate-and-repair loop).  ``capture`` optionally collects every
    generated sub-domain's final LP-pinning constraint sample, keyed
    ``("<fn>:<side>", group_index)`` — the raw material for certificate
    emission (:mod:`repro.analysis.certify`).  Raises
    :class:`~repro.rangereduction.base.RangeReductionError` when output
    compensation cannot reach a rounding interval and
    :class:`GenerationError` when polynomial generation fails within the
    sub-domain budget.
    """
    rr = spec.rr
    stats = GenStats()
    store = oracle.store if oracle.store is not None else active_store()

    with timed_span("generate", fn=spec.name,
                    target=str(spec.target)) as sp_gen:
        with timed_span("oracle", fn=spec.name) as sp:
            pairs: list[tuple[float, object]] = []
            for x in inputs:
                stats.input_count += 1
                if rr.special(x) is not None:
                    stats.special_count += 1
                    continue
                y_bits = oracle.round_to_bits(spec.name, x, spec.target)
                pairs.append(
                    (x, target_rounding_interval(spec.target, y_bits)))
        stats.oracle_time_s = sp.elapsed
        stats.phase_s["oracle"] = sp.elapsed

        with timed_span("reduced", fn=spec.name) as sp:
            rset: ReducedConstraintSet = reduced_intervals(
                pairs, rr, oracle, store=store, fmt_name=str(spec.target))
        stats.reduced_count = rset.reduced_count
        stats.phase_s["reduced"] = sp.elapsed
        event("generate.inputs", fn=spec.name, inputs=stats.input_count,
              special=stats.special_count, reduced=stats.reduced_count)

        with timed_span("piecewise", fn=spec.name) as sp:
            approx: dict[str, ApproxFunc] = {}
            for fn_name in rr.fn_names:
                af = gen_approx_func(fn_name, rset.constraints[fn_name],
                                     rr.exponents_for(fn_name),
                                     spec.piecewise, label=fn_name,
                                     warm=warm, capture=capture)
                if af is None:
                    raise GenerationError(
                        f"{spec.name}/{fn_name}: no piecewise polynomial "
                        f"within 2**{spec.piecewise.max_index_bits} "
                        "sub-domains")
                approx[fn_name] = af
                stats.per_fn[fn_name] = {
                    "npolys": af.npolys,
                    "degree": af.max_degree,
                    "terms": af.max_terms,
                }
        stats.phase_s["piecewise"] = sp.elapsed

    stats.gen_time_s = sp_gen.elapsed
    return GeneratedFunction(spec, approx, stats)
