"""LP front end for polynomial coefficient synthesis.

Each reduced constraint ``(r, [l, h])`` demands

    l  <=  c_0 * r**e_0 + ... + c_k * r**e_k  <=  h

(the exponent list supports the odd/even polynomial structures the paper
uses for sinpi/cospi/sinh).  This module builds the LP and solves it —
fast path through scipy's HiGHS with column scaling and tight tolerances,
certification path through the exact rational simplex of
:mod:`repro.lp.rational_simplex`.

Instead of a pure feasibility problem we maximize the *normalized margin*
``delta``: every constraint must be satisfied with slack at least
``delta`` times its interval half-width.  Centred solutions survive the
coefficient-rounding step (LP solvers return real coefficients that must
be rounded to H; the paper handles the fallout with a search-and-refine
loop, which we also implement in :mod:`repro.core.cegpoly` — a positive
margin simply makes that loop converge faster).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.fp.bits import double_to_bits
from repro.lp.rational_simplex import LPStatus, solve_lp_exact
from repro.obs import enabled, event, metrics

__all__ = ["LinearConstraint", "FitResult", "fit_coefficients",
           "LPWitness", "certificate_witness",
           "use_solution_cache", "clear_solution_cache"]

_C_SOLVES = metrics.counter("lp.solves")
_C_INFEASIBLE = metrics.counter("lp.infeasible")
_C_EXACT_FALLBACKS = metrics.counter("lp.exact_fallbacks")
_C_EXACT_SOLVES = metrics.counter("lp.exact_solves")
_C_REFINE_ROUNDS = metrics.counter("lp.refine_rounds")
_C_MEMO_HITS = metrics.counter("lp.memo_hits")
_C_WITNESS = metrics.counter("lp.witness_solves")
_C_DEDUP = metrics.counter("lp.dedup_dropped")
_H_ROWS = metrics.histogram("lp.rows")

#: HiGHS tolerances; the default 1e-7 would drown ulp-wide intervals
#: (1e-10 is the tightest value HiGHS accepts).
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": True,
}


@dataclass(frozen=True)
class LinearConstraint:
    """One reduced constraint: the polynomial at ``r`` must land in [lo, hi]."""

    r: float
    lo: float
    hi: float


@dataclass
class FitResult:
    """Outcome of a coefficient fit."""

    feasible: bool
    #: Coefficients aligned with the requested exponents (doubles).
    coefficients: list[float] | None = None
    #: Normalized margin achieved in [0, 1]; None when infeasible.
    margin: float | None = None
    #: Which backend produced the result ("highs" or "exact").
    backend: str = "highs"


#: Solution memo: both backends are deterministic functions of the exact
#: constraint system (HiGHS with a fixed option set included), so a
#: content-addressed lookup returns the bit-identical coefficients a
#: fresh solve would.  This is the LP half of the CEG warm start — across
#: validation rounds the early CEG iterations re-pose systems that were
#: already solved.  Keys use bit patterns, not float equality, so -0.0
#: and 0.0 endpoints stay distinct.
_MEMO_MAX = 512
_memo: OrderedDict[tuple, FitResult] = OrderedDict()
_memo_enabled = True


def use_solution_cache(on: bool) -> None:
    """Enable/disable the in-process LP solution memo (for benchmarks)."""
    global _memo_enabled
    _memo_enabled = on
    if not on:
        _memo.clear()


def clear_solution_cache() -> None:
    """Drop all memoized LP solutions."""
    _memo.clear()


def _copy_result(res: FitResult) -> FitResult:
    coeffs = None if res.coefficients is None else list(res.coefficients)
    return FitResult(res.feasible, coeffs, margin=res.margin,
                     backend=res.backend)


def fit_coefficients(
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
    exact: bool = False,
) -> FitResult:
    """Find polynomial coefficients satisfying every constraint.

    Parameters
    ----------
    constraints:
        The reduced inputs and reduced rounding intervals.
    exponents:
        Monomial exponents of the polynomial (e.g. ``(1, 3, 5)`` for the
        odd degree-5 sinpi polynomial of section 5).
    exact:
        Solve with the exact rational simplex instead of HiGHS.  Slower;
        used for certification and for small/ill-conditioned systems.
    """
    # Duplicate rows add nothing to the feasible region; drop exact
    # (r, lo, hi) repeats before solving/keying.  The pipeline's samples
    # hold one constraint per reduced input, so this is a safety net for
    # external callers rather than a hot path.
    sig = [(double_to_bits(c.r), double_to_bits(c.lo), double_to_bits(c.hi))
           for c in constraints]
    if len(set(sig)) != len(sig):
        seen: set[tuple[int, int, int]] = set()
        deduped = []
        kept_sig = []
        for c, k in zip(constraints, sig):
            if k in seen:
                continue
            seen.add(k)
            deduped.append(c)
            kept_sig.append(k)
        _C_DEDUP.inc(len(sig) - len(kept_sig))
        constraints, sig = deduped, kept_sig

    m = len(constraints)
    key = None
    if _memo_enabled:
        key = (bool(exact), tuple(exponents), tuple(sig))
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            _C_MEMO_HITS.inc()
            _C_SOLVES.inc()
            _H_ROWS.observe(2 * m)
            if not hit.feasible:
                _C_INFEASIBLE.inc()
            if enabled():
                event("lp.solve", rows=2 * m, cols=len(exponents) + 1,
                      feasible=hit.feasible, backend=hit.backend,
                      margin=hit.margin)
            return _copy_result(hit)

    res = _fit(constraints, exponents, exact)
    _C_SOLVES.inc()
    _H_ROWS.observe(2 * m)
    if not res.feasible:
        _C_INFEASIBLE.inc()
    if enabled():
        event("lp.solve", rows=2 * m, cols=len(exponents) + 1,
              feasible=res.feasible, backend=res.backend, margin=res.margin)
    if key is not None:
        _memo[key] = _copy_result(res)
        if len(_memo) > _MEMO_MAX:
            _memo.popitem(last=False)
    return res


def _fit(
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
    exact: bool = False,
) -> FitResult:
    if not constraints:
        return FitResult(True, [0.0] * len(exponents), margin=1.0)
    if not exponents:
        raise ValueError("need at least one monomial exponent")

    if exact:
        return _fit_exact(constraints, exponents)

    rs = [c.r for c in constraints]
    m = len(constraints)
    s = max((abs(r) for r in rs), default=1.0) or 1.0

    # Drop monomials whose column scale s**e underflows: their
    # contribution over this (tiny-r) domain is below any interval width,
    # so their coefficient is pinned to 0 to keep the unscaling finite.
    keep = [j for j, e in enumerate(exponents) if s ** e > 1e-290]
    if not keep:
        keep = [min(range(len(exponents)), key=lambda j: exponents[j])]
    kept_exps = [exponents[j] for j in keep]
    n = len(keep)
    scales = [s ** e for e in kept_exps]

    lo = np.array([c.lo for c in constraints])
    hi = np.array([c.hi for c in constraints])
    # Row equilibration: the interval magnitudes span the whole double
    # range (sinpi values reach 1e-38 for bfloat16 and beyond for
    # float32); dividing each row by its value magnitude keeps residuals
    # commensurate with HiGHS's absolute tolerances.
    vscale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)

    # Global value scale on the coefficient variables: without it, row
    # equilibration of tiny-magnitude systems (values ~1e-38) blows the
    # matrix entries up to ~1e38 and HiGHS returns confident nonsense.
    # Rows whose values are astronomically below the group maximum (e.g.
    # the sinh(0) ~ 0 constraint next to sinh values of 2**120) are
    # floored so vmax/vscale stays finite.
    vmax = float(np.max(vscale))
    vscale = np.maximum(vscale, vmax * 1e-250)
    lo_s = lo / vscale
    hi_s = hi / vscale
    w = (hi_s - lo_s) / 2.0

    mat = np.empty((m, n))
    t = np.array(rs) / s
    for j, e in enumerate(kept_exps):
        mat[:, j] = t ** e * (vmax / vscale)

    # Variables: scaled coefficients (free) then delta in [0, 1].
    # P(r_i) - delta*w_i >= lo_i   ->  -row . c + delta*w_i <= -lo_i
    # P(r_i) + delta*w_i <= hi_i   ->   row . c + delta*w_i <=  hi_i
    a_ub = np.zeros((2 * m, n + 1))
    a_ub[:m, :n] = -mat
    a_ub[m:, :n] = mat
    a_ub[:m, n] = w
    a_ub[m:, n] = w
    b_ub = np.concatenate([-lo_s, hi_s])

    cost = np.zeros(n + 1)
    cost[n] = -1.0  # maximize delta
    bounds = [(None, None)] * n + [(0.0, 1.0)]

    # imported here, not at module top: loading a frozen table must not
    # pay SciPy's import (about half a second of cold start)
    from scipy.optimize import linprog

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs", options=dict(_HIGHS_OPTIONS))
    if not res.success:
        # HiGHS can misjudge ulp-thin or near-collinear systems; certify
        # with the (pivot-capped) exact simplex when small enough.  A
        # confident "infeasible" verdict (status 2) is almost always
        # right, so only tiny systems buy the expensive insurance there;
        # any other failure (numerical trouble) always gets certified.
        limit = 24 if res.status == 2 else 64
        if m <= limit:
            _C_EXACT_FALLBACKS.inc()
            return _fit_exact(constraints, exponents)
        return FitResult(False)

    coeffs = [0.0] * len(exponents)
    for idx, j in enumerate(keep):
        coeffs[j] = float(res.x[idx]) * vmax / scales[idx]

    coeffs, margin = _iterative_refinement(
        coeffs, constraints, exponents, keep, s, float(res.x[n]))
    if coeffs is None:
        if m <= 64:
            _C_EXACT_FALLBACKS.inc()
            return _fit_exact(constraints, exponents)
        return FitResult(False)
    return FitResult(True, coeffs, margin=margin, backend="highs")


def _exact_residuals(
    coeffs: Sequence[float],
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """(lo - P(r), hi - P(r)) per constraint, computed exactly.

    The correction polynomial must land in these residual intervals; a
    feasible original system gives ``lo_res <= hi_res`` always.
    """
    lo_res = np.empty(len(constraints))
    hi_res = np.empty(len(constraints))
    cfr = [Fraction(c) for c in coeffs]
    for i, c in enumerate(constraints):
        rf = Fraction(c.r)
        p = sum(cj * rf ** e for cj, e in zip(cfr, exponents))
        lo_res[i] = float(Fraction(c.lo) - p)
        hi_res[i] = float(Fraction(c.hi) - p)
    return lo_res, hi_res


def _iterative_refinement(
    coeffs: list[float],
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
    keep: Sequence[int],
    s: float,
    margin: float,
    rounds: int = 3,
) -> tuple[list[float] | None, float]:
    """Drive exact violations below the interval widths (SoPlex-style
    iterative refinement, the paper's reference [17]).

    Rounding intervals can be as narrow as ~1e-11 relative after merging
    hard cases, which is *below* HiGHS's feasibility tolerance: a "HiGHS
    feasible" solution can exactly violate them.  Re-solving for a
    *correction* polynomial against the exact residuals, with each row
    scaled by its interval width, regains the lost precision because the
    correction problem's numbers are all O(1).
    """
    m = len(constraints)
    rs = np.array([c.r for c in constraints])
    widths = np.array([max(c.hi - c.lo, 5e-324) for c in constraints])
    wmax = float(np.max(widths))
    widths = np.maximum(widths, wmax * 1e-250)
    n = len(keep)
    kept_exps = [exponents[j] for j in keep]
    t = rs / s
    from scipy.optimize import linprog

    for _ in range(rounds):
        _C_REFINE_ROUNDS.inc()
        lo_res, hi_res = _exact_residuals(coeffs, constraints, exponents)
        # exactly (weakly) feasible: done — refinement only repairs
        # genuine violations, it must not reject tight-margin optima
        if np.all(lo_res <= 0.0) and np.all(hi_res >= 0.0):
            return coeffs, margin
        mat = np.empty((m, n))
        for j, e in enumerate(kept_exps):
            mat[:, j] = t ** e * (wmax / widths)
        a_ub = np.zeros((2 * m, n + 1))
        a_ub[:m, :n] = -mat
        a_ub[m:, :n] = mat
        a_ub[:m, n] = 0.5
        a_ub[m:, n] = 0.5
        b_ub = np.concatenate([-lo_res / widths, hi_res / widths])
        cost = np.zeros(n + 1)
        cost[n] = -1.0
        bounds = [(None, None)] * n + [(0.0, 1.0)]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      method="highs", options=dict(_HIGHS_OPTIONS))
        if not res.success:
            return None, 0.0
        margin = float(res.x[n])
        for idx, j in enumerate(keep):
            coeffs[j] = coeffs[j] + float(res.x[idx]) * wmax / (s ** exponents[j])

    lo_res, hi_res = _exact_residuals(coeffs, constraints, exponents)
    if np.all(lo_res <= 0) and np.all(hi_res >= 0):
        return coeffs, margin
    return None, 0.0


def _fit_exact(
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
) -> FitResult:
    """Exact-rational version of :func:`fit_coefficients` (feasibility +
    margin maximization with exact arithmetic)."""
    _C_EXACT_SOLVES.inc()
    sf = max((abs(float(c.r)) for c in constraints), default=1.0) or 1.0
    # Same underflow rule as the fast path: a monomial whose unscaled
    # coefficient would exceed the double range cannot be evaluated in H.
    orig_exponents = tuple(exponents)
    exponents = [e for e in orig_exponents if sf ** e > 1e-290]
    if not exponents:
        exponents = [min(orig_exponents)]
    n = len(exponents)
    m = len(constraints)
    s = max((abs(Fraction(c.r)) for c in constraints), default=Fraction(1)) or Fraction(1)
    scales = [s ** e for e in exponents]

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for c in constraints:
        t = Fraction(c.r) / s
        row = [t ** e for e in exponents]
        lo, hi = Fraction(c.lo), Fraction(c.hi)
        w = (hi - lo) / 2
        a_ub.append([-v for v in row] + [w])
        b_ub.append(-lo)
        a_ub.append(list(row) + [w])
        b_ub.append(hi)
    # delta <= 1, -delta <= 0
    a_ub.append([Fraction(0)] * n + [Fraction(1)])
    b_ub.append(Fraction(1))
    a_ub.append([Fraction(0)] * n + [Fraction(-1)])
    b_ub.append(Fraction(0))

    cost = [Fraction(0)] * n + [Fraction(1)]
    res = solve_lp_exact(a_ub, b_ub, cost)
    if res.status != LPStatus.OPTIMAL:
        return FitResult(False, backend="exact")
    assert res.x is not None
    coeffs = [0.0] * len(orig_exponents)
    for j, e in enumerate(exponents):
        coeffs[orig_exponents.index(e)] = float(res.x[j] / scales[j])
    return FitResult(True, coeffs, margin=float(res.x[n]), backend="exact")


@dataclass
class LPWitness:
    """Exact LP vertex witness for one certified sub-domain.

    The primal half says: the exact-rational polynomial with
    ``coefficients`` attains normalized margin ``delta`` on every
    certificate constraint.  The dual half (``duals_lo``/``duals_hi``
    per constraint plus ``dual_cap`` for the ``delta <= 1`` row) is a
    feasible dual solution whose objective equals ``delta`` — strong
    duality, checkable by direct substitution, proving no larger margin
    exists.  An independent verifier needs only Fraction arithmetic to
    confirm all of it (see ``repro.analysis.certify.verify``).
    """

    exponents: tuple[int, ...]
    coefficients: list[Fraction]
    delta: Fraction
    duals_lo: list[Fraction]
    duals_hi: list[Fraction]
    dual_cap: Fraction
    #: Primal rows active at the vertex ("lo:i", "hi:i", "cap").
    tight_rows: list[str]


def _witness_checks(
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
    coeffs: Sequence[Fraction],
    delta: Fraction,
    y_lo: Sequence[Fraction],
    y_hi: Sequence[Fraction],
    y_cap: Fraction,
) -> list[str] | None:
    """Re-derive the certificate identities by direct substitution.

    Returns the list of tight primal rows on success, None on any
    failure.  This is the same arithmetic the independent verifier
    performs; running it at emission time guarantees we never ship a
    witness the checker would reject.
    """
    rfs = [Fraction(c.r) for c in constraints]
    los = [Fraction(c.lo) for c in constraints]
    his = [Fraction(c.hi) for c in constraints]
    ws = [(h - l) / 2 for l, h in zip(los, his)]
    if delta < 0 or delta > 1:
        return None
    tight: list[str] = []
    for i, (rf, lo, hi, w) in enumerate(zip(rfs, los, his, ws)):
        p = sum(cj * rf ** e for cj, e in zip(coeffs, exponents))
        lo_bound = lo + delta * w
        hi_bound = hi - delta * w
        if p < lo_bound or p > hi_bound:
            return None
        if p == lo_bound:
            tight.append(f"lo:{i}")
        if p == hi_bound:
            tight.append(f"hi:{i}")
    if delta == 1:
        tight.append("cap")
    # dual feasibility: nonnegativity ...
    if y_cap < 0 or any(y < 0 for y in y_lo) or any(y < 0 for y in y_hi):
        return None
    # ... equality for every free coefficient column ...
    for e in exponents:
        if sum((yu - yl) * rf ** e
               for yl, yu, rf in zip(y_lo, y_hi, rfs)) != 0:
            return None
    # ... and for the free delta column
    if sum((yl + yu) * w for yl, yu, w in zip(y_lo, y_hi, ws)) + y_cap != 1:
        return None
    # strong duality: dual objective meets the primal margin exactly
    dual_obj = sum(hi * yu - lo * yl
                   for lo, hi, yl, yu in zip(los, his, y_lo, y_hi)) + y_cap
    if dual_obj != delta:
        return None
    return tight


def certificate_witness(
    constraints: Sequence[LinearConstraint],
    exponents: Sequence[int],
    max_pivots: int = 4000,
) -> LPWitness | None:
    """Solve the margin LP exactly and package a checkable vertex witness.

    Solves the primal (maximize the normalized margin ``delta``) with the
    exact rational simplex, then solves the *dual* LP exactly to obtain
    multipliers, and finally re-verifies primal feasibility, dual
    feasibility and strong duality by direct Fraction substitution.
    Returns None when no nonnegative-margin vertex exists or the pivot
    budget runs out — the caller must then drop the offending sample or
    ship the table uncertified, never a bogus witness.

    Column scaling (``t = r/s`` as in the solve path) leaves the dual
    solution unchanged because the coefficient columns carry zero
    objective cost, so the returned multipliers satisfy the *unscaled*
    identities the verifier checks.
    """
    m = len(constraints)
    n = len(exponents)
    if m == 0 or n == 0:
        return None
    _C_WITNESS.inc()
    s = max((abs(Fraction(c.r)) for c in constraints),
            default=Fraction(1)) or Fraction(1)
    scales = [s ** e for e in exponents]

    # Primal rows (scaled): lo-row then hi-row per constraint, then the
    # delta cap.  Unlike _fit_exact there is no  -delta <= 0  row: a
    # negative optimum then cleanly signals "margin 0 is unreachable".
    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for c in constraints:
        t = Fraction(c.r) / s
        row = [t ** e for e in exponents]
        lo, hi = Fraction(c.lo), Fraction(c.hi)
        w = (hi - lo) / 2
        a_ub.append([-v for v in row] + [w])
        b_ub.append(-lo)
        a_ub.append(list(row) + [w])
        b_ub.append(hi)
    a_ub.append([Fraction(0)] * n + [Fraction(1)])
    b_ub.append(Fraction(1))
    cost = [Fraction(0)] * n + [Fraction(1)]

    res = solve_lp_exact(a_ub, b_ub, cost, max_pivots)
    if res.status != LPStatus.OPTIMAL or res.x is None:
        return None
    delta = res.x[n]
    if delta < 0:
        return None
    coeffs = [res.x[j] / scales[j] for j in range(n)]

    # Dual LP: min b.y  s.t.  A^T y = cost, y >= 0 — posed for the
    # max-form solver as  max -b.y  with equality pairs and -y <= 0.
    nrows = len(a_ub)
    da_ub: list[list[Fraction]] = []
    db_ub: list[Fraction] = []
    for j in range(n + 1):
        col = [a_ub[k][j] for k in range(nrows)]
        da_ub.append(col)
        db_ub.append(cost[j])
        da_ub.append([-v for v in col])
        db_ub.append(-cost[j])
    for k in range(nrows):
        row = [Fraction(0)] * nrows
        row[k] = Fraction(-1)
        da_ub.append(row)
        db_ub.append(Fraction(0))
    dcost = [-v for v in b_ub]
    dres = solve_lp_exact(da_ub, db_ub, dcost, max_pivots)
    if dres.status != LPStatus.OPTIMAL or dres.x is None:
        return None
    y = dres.x
    y_lo = [y[2 * i] for i in range(m)]
    y_hi = [y[2 * i + 1] for i in range(m)]
    y_cap = y[2 * m]

    tight = _witness_checks(constraints, exponents, coeffs, delta,
                            y_lo, y_hi, y_cap)
    if tight is None:
        return None
    return LPWitness(tuple(exponents), coeffs, delta,
                     y_lo, y_hi, y_cap, tight)
