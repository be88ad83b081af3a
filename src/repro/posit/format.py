"""Posit arithmetic substrate: a from-scratch posit(n, es) codec.

The paper's second target representation is posit32 (n = 32, es = 2), a
tapered-precision type with no overflow/underflow: magnitudes beyond
``maxpos`` saturate to ``maxpos`` and non-zero magnitudes below ``minpos``
round to ``minpos`` (never to zero).  The paper notes this saturating
behaviour is exactly why repurposed double libraries produce millions of
wrong posit results for exponential/hyperbolic functions (Table 2).

This module implements:

* exact decoding of a posit bit pattern (regime / exponent / fraction) to
  a :class:`fractions.Fraction`,
* correctly rounded encoding from an exact rational with round-to-nearest,
  ties to the pattern with even last bit, and posit saturation semantics,
* monotone ordinal ordering (posit patterns order like two's-complement
  integers), neighbours, enumeration,
* the rounding-interval computation for posit targets (Algorithm 1 for
  T = posit).

Every posit32 value is exactly representable in binary64 (as the paper
relies on), which tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from repro.fp.bits import DBL_MIN_SUBNORMAL, fraction_to_double, next_double, prev_double
from repro.fp.rounding import RoundingInterval

__all__ = ["PositFormat", "POSIT8", "POSIT16", "POSIT32", "posit_rounding_interval"]


@dataclass(frozen=True)
class PositFormat:
    """A posit format with ``nbits`` total bits and ``es`` exponent bits."""

    nbits: int
    es: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.nbits < 3:
            raise ValueError("posits need at least 3 bits")
        if self.es < 0:
            raise ValueError("es must be non-negative")
        # float views of the extremes for the hot encode path (both are
        # powers of two, hence exact as doubles for nbits <= 32)
        object.__setattr__(self, "_maxpos_f", float(self.maxpos))
        object.__setattr__(self, "_minpos_f", float(self.minpos))

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def useed(self) -> int:
        """Regime scale factor 2**(2**es)."""
        return 1 << (1 << self.es)

    @property
    def nar_bits(self) -> int:
        """Bit pattern of NaR (not-a-real)."""
        return 1 << (self.nbits - 1)

    @property
    def sign_mask(self) -> int:
        return 1 << (self.nbits - 1)

    @property
    def mask(self) -> int:
        return (1 << self.nbits) - 1

    @property
    def maxpos_bits(self) -> int:
        return (1 << (self.nbits - 1)) - 1

    @property
    def minpos_bits(self) -> int:
        return 1

    @property
    def maxpos(self) -> Fraction:
        """Largest representable value: useed**(nbits-2)."""
        return Fraction(self.useed) ** (self.nbits - 2)

    @property
    def minpos(self) -> Fraction:
        """Smallest positive representable value."""
        return 1 / self.maxpos

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def is_nar(self, bits: int) -> bool:
        return (bits & self.mask) == self.nar_bits

    def is_zero(self, bits: int) -> bool:
        return (bits & self.mask) == 0

    def sign_of(self, bits: int) -> int:
        return -1 if bits & self.sign_mask else 1

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _decode_fields(self, body: int) -> tuple[int, int]:
        """``(sig, exp)`` with value ``sig * 2**exp`` for a positive
        pattern ``body`` (sign bit clear, nonzero)."""
        width = self.nbits - 1
        first = (body >> (width - 1)) & 1
        # length of the run of bits equal to `first`
        lead = (~body & ((1 << width) - 1)) if first else body
        run = width - lead.bit_length()
        k = run - 1 if first == 1 else -run
        # bits after the regime run and its terminating bit
        rem_width = max(width - run - 1, 0)
        rem = body & ((1 << rem_width) - 1)
        # exponent: up to `es` bits, implicitly zero-padded on the right
        if rem_width >= self.es:
            frac_width = rem_width - self.es
            e = rem >> frac_width
            frac = rem & ((1 << frac_width) - 1)
        else:
            e = rem << (self.es - rem_width)
            frac_width = 0
            frac = 0
        scale = k * (1 << self.es) + e
        return (1 << frac_width) | frac, scale - frac_width

    def _decode_positive(self, body: int) -> Fraction:
        """Value of a positive posit given its pattern (sign bit clear)."""
        sig, exp = self._decode_fields(body)
        return sig * Fraction(2) ** exp

    def to_fraction(self, bits: int) -> Fraction:
        """Exact value of a non-NaR pattern."""
        bits &= self.mask
        if bits == 0:
            return Fraction(0)
        if bits == self.nar_bits:
            raise ValueError("NaR has no rational value")
        if bits & self.sign_mask:
            return -self._decode_positive((-bits) & self.mask)
        return self._decode_positive(bits)

    def to_double(self, bits: int) -> float:
        """Value of a pattern as a double (NaR maps to NaN).

        ``math.ldexp`` converts the integer significand with correct
        rounding (ties to even) and the power-of-two scale is exact:
        ``float(maxpos)`` above guarantees every value lies in
        [2**-1023, 2**1023], and the only one below 2**-1022 is minpos,
        whose significand is 1.  So this equals rounding the exact
        rational, for every format.
        """
        bits &= self.mask
        if bits == self.nar_bits:
            return math.nan
        if bits == 0:
            return 0.0
        if bits & self.sign_mask:
            sig, exp = self._decode_fields((-bits) & self.mask)
            return -math.ldexp(sig, exp)
        sig, exp = self._decode_fields(bits)
        return math.ldexp(sig, exp)

    # ------------------------------------------------------------------
    # Encode (correct rounding with posit saturation)
    # ------------------------------------------------------------------
    def _encode_positive(self, q: Fraction) -> int:
        """Round a positive rational to a positive posit pattern.

        Posit rounding is defined on the *encoding*: write the value as an
        unbounded bit string (regime || exponent || fraction) and round it
        to nbits with round-to-nearest, ties-to-even.  Within one
        regime/exponent block this equals value-nearest rounding, but
        where a long regime truncates the exponent bits the boundaries
        become geometric — e.g. the posit16 cut between 2**26 and 2**28
        sits at 2**27, not at their arithmetic mean.
        """
        if q >= self.maxpos:
            return self.maxpos_bits
        if q <= self.minpos:
            return self.minpos_bits
        # s = floor(log2(q)); m = q / 2**s in [1, 2)
        s = q.numerator.bit_length() - q.denominator.bit_length()
        if Fraction(2) ** s > q:
            s -= 1
        m = q / Fraction(2) ** s
        k, e = divmod(s, 1 << self.es)
        if k >= 0:
            regime_val = (1 << (k + 2)) - 2
            regime_width = k + 2
        else:
            regime_val = 1
            regime_width = 1 - k
        avail = self.nbits - 1
        d = avail - regime_width  # bits left for exponent+fraction
        # The es+fraction tail encodes w = e + (m-1) in [0, 2**es) with
        # binary weight; keep its top d bits and round the remainder.
        w = e + (m - 1)
        scaled = w * Fraction(2) ** (d - self.es)
        c = scaled.numerator // scaled.denominator
        rem = scaled - c
        head = (regime_val << d) | c
        half = Fraction(1, 2)
        if rem > half or (rem == half and head & 1):
            head += 1
        if head >= (1 << avail):
            return self.maxpos_bits
        return head

    def from_fraction(self, q: Fraction) -> int:
        """Round an exact rational to this posit format (bit pattern)."""
        if q == 0:
            return 0
        if q > 0:
            return self._encode_positive(q)
        return (-self._encode_positive(-q)) & self.mask

    def _encode_positive_double(self, x: float) -> int:
        """Fast positive-double encoder: build the unbounded posit bit
        string (regime || exponent || 52 fraction bits) and round it to
        nbits with round-to-nearest, ties-to-even.

        For posits, adjacent patterns differ by exactly the fraction-LSB
        weight of the lower pattern's block, so RNE on the bit string *is*
        RNE on the value (ties to the even pattern); a carry out of the
        fraction correctly walks into the exponent/regime.  Tests check
        agreement with the exact rational encoder exhaustively for
        posit8/16 and on random posit32 patterns.
        """
        m, s2 = math.frexp(x)
        s = s2 - 1
        sig = int(m * 9007199254740992.0)  # m * 2**53, exact
        frac52 = sig - (1 << 52)
        k, e = divmod(s, 1 << self.es)
        if k >= 0:
            regime_val = (1 << (k + 2)) - 2      # k+1 ones then a zero
            regime_width = k + 2
        else:
            regime_val = 1                       # -k zeros then a one
            regime_width = 1 - k
        full = (regime_val << (self.es + 52)) | (e << 52) | frac52
        width = regime_width + self.es + 52
        avail = self.nbits - 1
        if width <= avail:
            return full << (avail - width)
        shift = width - avail
        head = full >> shift
        rem = full & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        if rem > half or (rem == half and head & 1):
            head += 1
        if head >= (1 << avail):
            return self.maxpos_bits
        if head == 0:  # pragma: no cover - prevented by the minpos clamp
            return self.minpos_bits
        return head

    def from_double(self, x: float) -> int:
        """Round a double to this posit format (NaN/inf map to NaR)."""
        if math.isnan(x) or math.isinf(x):
            return self.nar_bits
        if x == 0.0:
            return 0
        a = abs(x)
        if a >= self._maxpos_f:
            bits = self.maxpos_bits
        elif a <= self._minpos_f:
            bits = self.minpos_bits
        else:
            bits = self._encode_positive_double(a)
        return bits if x > 0 else (-bits) & self.mask

    def round_double(self, x: float) -> float:
        """Round a double through this posit format, back to a double."""
        return self.to_double(self.from_double(x))

    # ------------------------------------------------------------------
    # Ordinals, neighbours, enumeration
    # ------------------------------------------------------------------
    def to_ordinal(self, bits: int) -> int:
        """Signed two's-complement view; monotone in value (NaR rejected)."""
        bits &= self.mask
        if bits == self.nar_bits:
            raise ValueError("NaR has no ordinal")
        if bits & self.sign_mask:
            return bits - (1 << self.nbits)
        return bits

    def from_ordinal(self, n: int) -> int:
        return n & self.mask

    def next_up(self, bits: int) -> int:
        """Next larger posit value (saturates at maxpos)."""
        n = self.to_ordinal(bits)
        if n >= self.maxpos_bits:
            return self.maxpos_bits
        return self.from_ordinal(n + 1)

    def next_down(self, bits: int) -> int:
        """Next smaller posit value (saturates at -maxpos)."""
        n = self.to_ordinal(bits)
        if n <= -(self.maxpos_bits):
            return self.from_ordinal(-self.maxpos_bits)
        return self.from_ordinal(n - 1)

    def enumerate_all(self, include_negative: bool = True) -> Iterator[int]:
        """Yield every non-NaR pattern in ascending value order."""
        start = -self.maxpos_bits if include_negative else 0
        for n in range(start, self.maxpos_bits + 1):
            yield self.from_ordinal(n)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"posit{self.nbits}(es={self.es})"


def _tie_value(fmt: PositFormat, below_bits: int) -> float:
    """Exact rounding boundary between pattern ``below`` and its successor.

    Appending a 1-bit to a posit pattern yields the (nbits+1)-bit posit
    that encodes exactly the rounding tie between the pattern and the
    next one — this is where the bit-string RNE flips.  In ordinal terms:
    the extended format's ordinal 2*ord + 1.
    """
    ext = PositFormat(fmt.nbits + 1, fmt.es)
    mid = ext.to_fraction(ext.from_ordinal(2 * fmt.to_ordinal(below_bits) + 1))
    d = fraction_to_double(mid)
    if Fraction(d) != mid:
        raise ValueError("posit tie value not exactly representable in double")
    return d


def posit_rounding_interval(fmt: PositFormat, y_bits: int) -> RoundingInterval:
    """Closed double interval rounding to posit value ``y_bits``.

    Boundaries are the bit-string rounding ties (see :meth:`PositFormat.
    _encode_positive`); the tie itself belongs to the pattern with even
    last bit.  Posit semantics differ from IEEE at the edges: only an
    exact 0 rounds to 0 (so its interval is the single point 0), every
    tiny positive double rounds to minpos, and everything above the top
    tie — including +inf as an "overflowed double" — saturates to maxpos.
    """
    y_bits &= fmt.mask
    if fmt.is_nar(y_bits):
        raise ValueError("NaR has no rounding interval")
    if fmt.is_zero(y_bits):
        return RoundingInterval(0.0, 0.0)

    even = (y_bits & 1) == 0

    up_bits = fmt.next_up(y_bits)
    if up_bits == y_bits:  # y is maxpos: saturation above
        hi = math.inf
    elif fmt.is_zero(up_bits):  # y is the largest negative value (-minpos)
        hi = -DBL_MIN_SUBNORMAL
    else:
        mid = _tie_value(fmt, y_bits)
        hi = mid if even else prev_double(mid)

    dn_bits = fmt.next_down(y_bits)
    if dn_bits == y_bits:  # y is -maxpos: saturation below
        lo = -math.inf
    elif fmt.is_zero(dn_bits):  # y is minpos
        lo = DBL_MIN_SUBNORMAL
    else:
        mid = _tie_value(fmt, dn_bits)
        lo = mid if even else next_double(mid)

    return RoundingInterval(lo, hi)


#: The paper's posit32 target (es = 2).
POSIT32 = PositFormat(32, 2, "posit32")
#: posit16 with es = 1 (as used by the 16-bit RLIBM predecessors).
POSIT16 = PositFormat(16, 1, "posit16")
#: posit8 with es = 0; tiny, exhaustively checkable in milliseconds.
POSIT8 = PositFormat(8, 0, "posit8")
