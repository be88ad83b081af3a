"""Range reductions for sinpi and cospi (paper sections 2 and 5).

Both reduce through periodicity and reflection to L' in [0, 1/2], then to
a table index N and a fractional reduced input in [0, 1/512], and both
need *two* reduced elementary functions — sinpi(R) and cospi(R):

* **sinpi** (section 2):  L' = N/512 + R, and

      sinpi(x) = S * ( sinpi(N/512) cospi(R) + cospi(N/512) sinpi(R) )

  with S = (-1)**K from periodicity.  Every reduction step (fmod by 2,
  integer split, reflection 1-L, scaling by 512, the final subtraction)
  is exact in double.

* **cospi** (section 5): the naive identity
  ``cospi(a+b) = cospi(a)cospi(b) - sinpi(a)sinpi(b)`` mixes signs, so
  output compensation would be non-monotonic and suffer cancellation.
  The paper's fix, reproduced here: for N != 0 shift the table index to
  N' = N + 1 and use R = 1/512 - Q (exact), giving

      cospi(x) = S * ( cospi(N'/512) cospi(R) + sinpi(N'/512) sinpi(R) )

  where both table entries are non-negative — a monotonic, cancellation
  free compensation.  For N == 0 the same formula applies with N' = 0
  (cospi(0)=1, sinpi(0)=0) and R = Q directly.

Large inputs are special-cased: every float32 with |x| >= 2**23 is an
integer, so sinpi is a (signed) zero and cospi is +-1 by parity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.batch.reduce import table
from repro.core.intervals import TargetFormat
from repro.posit.format import PositFormat
from repro.rangereduction.base import RangeReduction, Reduced
from repro.rangereduction.tables import sinpicospi_tables

__all__ = ["SinPiReduction", "CosPiReduction"]

_BIG = 2.0 ** 23


def _split_to_half(ax: float) -> tuple[int, int, float]:
    """Common exact reduction: |x| -> (K, M, L') with L' in [0, 1/2].

    K is the periodicity flip (J >= 1), M the reflection flip (L > 1/2).
    All arithmetic is exact in double.
    """
    j = math.fmod(ax, 2.0)        # exact by definition of fmod
    if j >= 1.0:
        k = 1
        l = j - 1.0               # exact (Sterbenz)
    else:
        k = 0
        l = j
    if l > 0.5:
        m = 1
        l2 = 1.0 - l              # exact (Sterbenz)
    else:
        m = 0
        l2 = l
    return k, m, l2


def _split_table(l2: float) -> tuple[int, float]:
    """L' -> (N, Q) with N in 0..255 and Q = L' - N/512 in [0, 1/512]."""
    n = int(l2 * 512.0)           # exact scaling + truncation
    if n > 255:
        n = 255                   # L' == 1/2 exactly -> N=255, Q=1/512
    q = l2 - n * 0.001953125      # exact
    return n, q


def _split_to_half_batch(ax: np.ndarray):
    """Array version of :func:`_split_to_half`: (K, M, L') as arrays.

    ``ax - 2*floor(ax/2)`` equals ``fmod(ax, 2)`` bit for bit on every
    lane that reaches the reduction (0 <= ax < 2**23): ``ax*0.5`` and
    ``floor`` are exact (a subnormal ``ax`` floors to 0 either way), and
    for q = floor(ax/2) >= 1 the subtrahend 2q lies in [ax/2, ax], so
    the subtraction is exact by Sterbenz.
    """
    j = ax * 0.5
    np.floor(j, out=j)
    j *= -2.0
    j += ax
    ge1 = j >= 1.0
    j -= ge1                      # L = J - K, exact (Sterbenz)
    refl = j > 0.5
    # 1 - L is exact where L > 1/2 and picked by min exactly there
    return ge1, refl, np.minimum(j, 1.0 - j)


def _split_table_batch(l2: np.ndarray):
    """Array version of :func:`_split_table`: (N, Q) as arrays."""
    n = np.minimum((l2 * 512.0).astype(np.int64), 255)
    q = l2 - n * 0.001953125
    return n, q


class SinPiReduction(RangeReduction):
    """sinpi via periodicity + 512-entry tables (section 2)."""

    name = "sinpi"
    fn_names = ("sinpi", "cospi")

    def __init__(self, target: TargetFormat, max_degree: int = 7):
        self.target = target
        odd = tuple(range(1, max_degree + 1, 2))
        even = tuple(range(0, max_degree + 1, 2))
        self.exponents = (odd, even)
        self._sin_t, self._cos_t = sinpicospi_tables(256)

    def special(self, x: float) -> float | None:
        if math.isnan(x) or math.isinf(x):
            return math.nan
        if x == 0.0:
            return x              # sinpi(+-0) = +-0
        if abs(x) >= _BIG:
            return math.copysign(0.0, x)   # every such value is an integer
        return None

    def reduce(self, x: float) -> Reduced:
        ax = abs(x)
        k, _m, l2 = _split_to_half(ax)
        n, r = _split_table(l2)
        sgn = -1.0 if ((x < 0.0) != (k == 1)) else 1.0
        return Reduced(r + 0.0, (n, sgn))

    def compensate(self, values: Sequence[float], ctx: tuple) -> float:
        n, sgn = ctx
        vs, vc = values
        # + 0.0 flushes a -0 product to +0, matching the oracle's zero
        # convention for non-special exact zeros (e.g. sinpi(-2)).
        return sgn * (self._sin_t[n] * vc + self._cos_t[n] * vs) + 0.0

    def special_batch(self, xs: np.ndarray):
        ax = np.abs(xs)
        bad = np.isnan(xs) | np.isinf(xs)
        mask = bad | (xs == 0.0) | (ax >= _BIG)
        sub = xs[mask]
        # x == +-0 keeps its sign; huge values are integers -> signed zero
        vals = np.where(np.abs(sub) >= _BIG, np.copysign(0.0, sub), sub)
        vals[bad[mask]] = np.nan
        return mask, vals

    def reduce_batch(self, xs: np.ndarray):
        ax = np.abs(xs)
        ge1, _refl, l2 = _split_to_half_batch(ax)
        n, r = _split_table_batch(l2)
        sgn = np.where((xs < 0.0) != ge1, -1.0, 1.0)
        return r + 0.0, (n, sgn)

    def compensate_batch(self, values, ctx):
        n, sgn = ctx
        vs, vc = values
        st = table(self, "_sin_t")[n]
        ct = table(self, "_cos_t")[n]
        return sgn * (st * vc + ct * vs) + 0.0

    def make_fast_evaluate(self, funcs, rnd):
        """Inlined hot path (bit-identical to special/reduce/compensate)."""
        fs, fc = funcs
        sin_t = self._sin_t
        cos_t = self._cos_t
        special = self.special
        fmod = math.fmod

        def evaluate(x: float) -> float:
            ax = abs(x)
            if 0.0 < ax < _BIG:                # NaN/inf/0/huge fall through
                j = fmod(ax, 2.0)
                if j >= 1.0:
                    k1 = x >= 0.0              # sign flip parity
                    l = j - 1.0
                else:
                    k1 = x < 0.0
                    l = j
                l2 = 1.0 - l if l > 0.5 else l
                n = int(l2 * 512.0)
                if n > 255:
                    n = 255
                r = l2 - n * 0.001953125 + 0.0
                y = sin_t[n] * fc(r) + cos_t[n] * fs(r)
                return rnd((-y if k1 else y) + 0.0)
            return rnd(special(x))

        return evaluate


class CosPiReduction(RangeReduction):
    """cospi via the monotonic N' = N+1 reduction (section 5)."""

    name = "cospi"
    fn_names = ("sinpi", "cospi")

    def __init__(self, target: TargetFormat, max_degree: int = 7):
        self.target = target
        odd = tuple(range(1, max_degree + 1, 2))
        even = tuple(range(0, max_degree + 1, 2))
        self.exponents = (odd, even)
        self._sin_t, self._cos_t = sinpicospi_tables(256)

    def special(self, x: float) -> float | None:
        if math.isnan(x) or math.isinf(x):
            return math.nan
        ax = abs(x)
        if ax >= _BIG:
            if ax >= 2.0 ** 24:
                return 1.0        # spacing >= 2: every value is even
            return 1.0 if int(ax) % 2 == 0 else -1.0
        return None

    #: Same classification threshold/cap as ExpReduction (see exp.py for
    #: the LP-vertex-drift rationale behind the numbers).
    _GRAZE_THRESHOLD = 3e-5
    _GRAZE_CAP = 24576

    def hard_input_candidates(self) -> list[float]:
        """Every representable input grazing a midpoint in the N=0 band.

        For 0 < x < 1/512 the reduction is the identity (N = 0, R = x)
        and compensation multiplies by cospi(0) = 1: the cospi
        polynomial alone decides roundings in a band where thousands of
        inputs share each output ordinal just below 1.0 — the exact
        analogue of the exp-family k=0 band.  Walk every output
        midpoint m in (cospi(1/512), 1] and invert it: the preimage is
        x* = acos(m)/pi (m is an exact double, libm acos carries ~1 ulp
        relative error — orders of magnitude below the distances being
        classified).  Negative inputs reduce to the same R by evenness,
        so positive candidates constrain both signs.

        IEEE targets only, for the same reasons as ExpReduction: no
        posit near-1 cospi miss has ever been mined, and posit bands
        are large enough to over-constrain generation (see ROADMAP).
        """
        fmt = self.target
        if isinstance(fmt, PositFormat):
            return []
        # generation-time enumeration: candidates need ~2**-30 accuracy,
        # not correct rounding, so plain math.* is fine here
        lo_bits = fmt.from_double(math.cos(math.pi / 512.0))  # fplint: disable=FP102
        hi_bits = fmt.from_double(1.0)
        scored: list[tuple[float, float]] = []
        seen: set[int] = set()
        bits = lo_bits
        y = fmt.to_double(bits)
        while bits != hi_bits:
            nbits = fmt.next_up(bits)
            ny = fmt.to_double(nbits)
            width = ny - y
            m = y + width / 2.0
            x_star = math.acos(m) / math.pi  # fplint: disable=FP102
            deriv = math.pi * math.sin(math.pi * x_star)  # fplint: disable=FP102
            xb = fmt.from_double(x_star)
            up, down = fmt.next_up, fmt.next_down
            for cb, step in ((xb, up), (down(xb), down)):
                while True:
                    x = fmt.to_double(cb)
                    d = abs(x - x_star) * deriv / width
                    if d >= self._GRAZE_THRESHOLD:
                        break
                    if cb not in seen and self.special(x) is None:
                        seen.add(cb)
                        scored.append((d, x))
                    cb = step(cb)
            bits, y = nbits, ny
        scored.sort(key=lambda t: t[0])
        return [x for _, x in scored[: self._GRAZE_CAP]]

    def reduce(self, x: float) -> Reduced:
        ax = abs(x)               # cospi is even
        k, m, l2 = _split_to_half(ax)
        n, q = _split_table(l2)
        sgn = -1.0 if (k + m) % 2 else 1.0
        if n == 0:
            return Reduced(q + 0.0, (0, sgn))
        n2 = n + 1
        r = n2 * 0.001953125 - l2   # == 1/512 - Q, exact (Sterbenz)
        return Reduced(r + 0.0, (n2, sgn))

    def compensate(self, values: Sequence[float], ctx: tuple) -> float:
        n, sgn = ctx
        vs, vc = values
        return sgn * (self._cos_t[n] * vc + self._sin_t[n] * vs) + 0.0

    def special_batch(self, xs: np.ndarray):
        ax = np.abs(xs)
        bad = np.isnan(xs) | np.isinf(xs)
        mask = bad | (ax >= _BIG)
        asub = ax[mask]
        vals = np.ones(asub.shape, dtype=np.float64)
        # parity only decides below 2**24 (above it every value is even);
        # computed on those lanes alone so the int64 conversion is exact
        par = np.isfinite(asub) & (asub < 2.0 ** 24)
        if par.any():
            odd = asub[par].astype(np.int64) & 1
            vals[par] = np.where(odd == 1, -1.0, 1.0)
        vals[bad[mask]] = np.nan
        return mask, vals

    def reduce_batch(self, xs: np.ndarray):
        ax = np.abs(xs)
        ge1, refl, l2 = _split_to_half_batch(ax)
        n, q = _split_table_batch(l2)
        sgn = np.where(ge1 != refl, -1.0, 1.0)   # (K + M) % 2
        nz = n != 0
        n2 = np.where(nz, n + 1, 0)
        r = np.where(nz, (n + 1) * 0.001953125 - l2, q)
        return r + 0.0, (n2, sgn)

    def compensate_batch(self, values, ctx):
        n, sgn = ctx
        vs, vc = values
        st = table(self, "_sin_t")[n]
        ct = table(self, "_cos_t")[n]
        return sgn * (ct * vc + st * vs) + 0.0

    def make_fast_evaluate(self, funcs, rnd):
        """Inlined hot path (bit-identical to special/reduce/compensate)."""
        fs, fc = funcs
        sin_t = self._sin_t
        cos_t = self._cos_t
        special = self.special
        fmod = math.fmod

        def evaluate(x: float) -> float:
            ax = abs(x)
            if ax < _BIG:                      # NaN/inf/huge fall through
                j = fmod(ax, 2.0)
                if j >= 1.0:
                    flip = True
                    l = j - 1.0
                else:
                    flip = False
                    l = j
                if l > 0.5:
                    flip = not flip
                    l2 = 1.0 - l
                else:
                    l2 = l
                n = int(l2 * 512.0)
                if n > 255:
                    n = 255
                q = l2 - n * 0.001953125
                if n == 0:
                    r = q + 0.0
                else:
                    n = n + 1
                    r = n * 0.001953125 - l2 + 0.0
                y = cos_t[n] * fc(r) + sin_t[n] * fs(r)
                return rnd((-y if flip else y) + 0.0)
            return rnd(special(x))

        return evaluate
