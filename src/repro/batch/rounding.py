"""Vectorized final rounding RN_T and bit-pattern encoding.

:func:`round_kernel` / :func:`bits_kernel` return array versions of the
scalar pair :func:`repro.core.generator.target_rounder` /
:func:`repro.core.generator.target_bits`, bit-identical per lane:

* **float32** — the hot path.  ``astype(np.float32)`` performs the same
  IEEE double→binary32 RNE conversion as the ``struct``-based
  :func:`repro.fp.float32.f32_round` (including the overflow threshold:
  the tie 2**127*(2-2**-24) rounds to the even 2**128, i.e. +inf).
  Only canonical quiet NaNs reach final rounding (the special-case
  layers return ``math.nan``), so the payload-truncating conversion is
  value- and bit-preserving for every value the pipeline produces.
* **parametric IEEE formats** — a uint64 bit algorithm on the double
  pattern: variable right shift of the 53-bit significand with
  round-to-nearest-even on the shifted-out bits, the unified
  normal/subnormal pattern ``((e+bias-1)<<mbits)+head`` (the implicit
  bit carries the rounded-up significand into the next exponent, and
  past ``emax`` into ``inf_bits``), exactly reproducing
  ``FloatFormat.from_fraction``.  Double *subnormal* inputs all round
  to (signed) zero whenever ``emin - mbits - 1 >= -1022`` — true for
  every mini-format; otherwise those rare lanes take the scalar
  encoder.
* **posits** — the bit-string RNE of
  ``PositFormat._encode_positive_double``, table driven: a double's
  11-bit exponent field fixes the regime, the exponent bits and the RNE
  shift, so one cached row per field value (2048 rows per format) holds
  the shift, the regime prefix already shifted into place, the
  remainder mask and the half value.  NaR, the maxpos/minpos saturation
  binades and the double subnormals are constant rows; a lane is four
  gathers and a dozen in-place int64 ops.  The decoder finds the regime
  run length with a count-leading-zeros trick (int→float64 conversion is
  exact below 2**53, so the double's exponent field *is* floor(log2)).
* anything else falls back to a scalar loop (still bit-identical, just
  not fast).

Decoding deliberately maps every zero pattern to ``+0.0``:
``FloatFormat.to_double`` goes through :class:`fractions.Fraction`,
which has no signed zero, so the scalar ``round_double`` loses the
zero's sign for every format except the ``struct``-based float32 path
— and bit-identity means reproducing exactly that.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.core.intervals import TargetFormat
from repro.fp.formats import FLOAT32, FloatFormat
from repro.posit.format import PositFormat

__all__ = ["bits_kernel", "decode_kernel", "round_kernel"]

_ABS64 = 0x7FFFFFFFFFFFFFFF
_EXPINF = 0x7FF0000000000000
_FRAC52 = (1 << 52) - 1


# --------------------------------------------------------------------------
# float32 (the shipped 32-bit IEEE target)


def _f32_round(xs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return xs.astype(np.float32).astype(np.float64)


def _f32_bits(xs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        f = xs.astype(np.float32)
    out = f.view(np.uint32).astype(np.uint64)
    out[np.isnan(f)] = np.uint64(0x7FC00000)  # canonical quiet NaN
    return out


# --------------------------------------------------------------------------
# parametric IEEE formats


class _FloatEncode:
    """``FloatFormat.from_double`` on arrays (uint64 patterns as int64)."""

    def __init__(self, fmt: FloatFormat):
        self.fmt = fmt
        self.mbits = fmt.mbits
        self.bias = fmt.bias
        self.emin = fmt.emin
        self.inf_bits = fmt.inf_bits
        self.nan_bits = fmt.nan_bits
        self.sign_mask = fmt.sign_mask
        # every nonzero double subnormal is below half the format's
        # smallest subnormal => rounds to (signed) zero
        self.tiny_to_zero = fmt.emin - fmt.mbits - 1 >= -1022

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        b = xs.view(np.int64)
        mag = b & _ABS64
        sign = np.where(b < 0, self.sign_mask, 0)

        nan_m = mag > _EXPINF
        inf_m = mag == _EXPINF
        zero_m = mag == 0
        sub_m = (mag < (1 << 52)) & ~zero_m
        norm_m = ~(nan_m | inf_m | zero_m | sub_m)

        e = (mag >> 52) - 1023
        sig = (mag & _FRAC52) | (1 << 52)
        shift = 52 - self.mbits + np.maximum(self.emin - e, 0)
        np.clip(shift, 0, 54, out=shift)        # sig>>54 == 0 regardless
        head = sig >> shift
        rem = sig & (np.left_shift(1, shift) - 1)
        half = np.left_shift(1, np.maximum(shift - 1, 0))
        up = (rem > half) | ((rem == half) & ((head & 1) == 1))
        up &= shift > 0
        head = head + up
        pattern = np.where(e < self.emin, head,
                           ((e + self.bias - 1) << self.mbits) + head)
        pattern = np.where(pattern >= self.inf_bits, self.inf_bits, pattern)

        out = sign + pattern
        out[zero_m] = sign[zero_m]
        out[nan_m] = self.nan_bits
        out[inf_m] = sign[inf_m] + self.inf_bits
        if sub_m.any():
            if self.tiny_to_zero:
                out[sub_m] = sign[sub_m]
            else:
                out[sub_m] = [self.fmt.from_double(v)
                              for v in xs[sub_m].tolist()]
        return out


class _FloatDecode:
    """``FloatFormat.to_double`` on arrays of patterns."""

    def __init__(self, fmt: FloatFormat):
        self.mbits = fmt.mbits
        self.bias = fmt.bias
        self.emin = fmt.emin
        self.exp_mask = fmt.exp_mask
        self.mant_mask = fmt.mant_mask
        self.sign_mask = fmt.sign_mask

    def __call__(self, bits: np.ndarray) -> np.ndarray:
        e_f = (bits >> self.mbits) & self.exp_mask
        m = bits & self.mant_mask
        neg = (bits & self.sign_mask) != 0
        sig = np.where(e_f == 0, m, m + (1 << self.mbits))
        exp = np.where(e_f == 0, self.emin, e_f - self.bias) - self.mbits
        # exact: the value of every finite pattern is representable (and
        # for FLOAT64-as-target the subnormal result is the value itself)
        val = np.ldexp(sig.astype(np.float64), exp.astype(np.int32))
        val = np.where(neg, -val, val)
        top = e_f == self.exp_mask
        val[top & (m != 0)] = np.nan
        val[top & (m == 0) & ~neg] = np.inf
        val[top & (m == 0) & neg] = -np.inf
        # to_double goes through Fraction: both zero patterns are +0.0
        val[(e_f == 0) & (m == 0)] = 0.0
        return val


# --------------------------------------------------------------------------
# posits


def _posit_vectorizable(fmt: PositFormat) -> bool:
    # shift >= 1 in the encoder; exact int->float decode.  A format is
    # only constructible with maxpos < 2**1024, so with this bound
    # minpos >= 2**-1022 too: every double subnormal saturates to
    # minpos and the encoder's 52+es bit tail fits int64
    return fmt.nbits - 1 <= fmt.es + 52


@functools.lru_cache(maxsize=None)
def _posit_table(fmt: PositFormat) -> tuple:
    """Per-binade rows of the posit encoder, indexed by the double's
    11-bit biased exponent field: ``(shift, prefix, rmask, half)``.

    Inside (minpos, maxpos) a binade fixes the regime, the exponent bits
    and hence the RNE shift; ``prefix`` is the regime already shifted
    into place.  Every other binade is a constant row (shift 63 leaves
    no fraction bits, ``rmask`` 0 and ``half`` 1 never round up): NaR for
    NaN/inf, maxpos/minpos for the saturation binades.  Row 0 (zeros
    and double subnormals) rounds any nonzero fraction up from 0 to
    minpos's pattern 1.  Cached per format, so every kernel of one
    target (and every serve worker's ``from_parts``) shares one table.
    """
    es = fmt.es
    avail = fmt.nbits - 1
    top = (fmt.nbits - 2) << es               # maxpos = 2**top = 1/minpos
    shift = np.full(2048, 63, np.int64)
    prefix = np.zeros(2048, np.int64)
    rmask = np.zeros(2048, np.int64)
    half = np.ones(2048, np.int64)
    for ef in range(1, 2047):
        s = ef - 1023
        if s >= top:
            prefix[ef] = fmt.maxpos_bits
        elif s < -top:
            prefix[ef] = fmt.minpos_bits
        else:
            k = s >> es
            if k >= 0:
                rv, rw = (1 << (k + 2)) - 2, k + 2
            else:
                rv, rw = 1, 1 - k
            sh = rw + es + 52 - avail
            shift[ef] = sh
            prefix[ef] = rv << (es + 52 - sh)
            rmask[ef] = (1 << sh) - 1
            half[ef] = 1 << (sh - 1)
    rmask[0] = _FRAC52
    half[0] = 0
    prefix[2047] = fmt.nar_bits
    for row in (shift, prefix, rmask, half):
        row.setflags(write=False)
    return shift, prefix, rmask, half


class _PositEncode:
    """``PositFormat.from_double`` on arrays (patterns as int64).

    Per lane: the 52+es bit tail ``(eo << 52) | frac52`` (adding
    ``-1023 mod 2**es`` to the exponent field leaves ``eo`` in its low
    es bits), four gathers from :func:`_posit_table`, the RNE of
    ``PositFormat._encode_positive_double`` as ``rem + lsb > half``, and
    the sign as a two's-complement negate under the format mask.
    """

    def __init__(self, fmt: PositFormat):
        self.shift, self.prefix, self.rmask, self.half = _posit_table(fmt)
        self.bias = ((-1023) % (1 << fmt.es)) << 52
        self.tail = (1 << (52 + fmt.es)) - 1
        self.mask = fmt.mask

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        b = xs.view(np.int64)
        ef = b >> 52
        ef &= 0x7FF
        t = b + self.bias
        t &= self.tail
        head = t >> self.shift.take(ef)
        head += self.prefix.take(ef)
        t &= self.rmask.take(ef)
        t += head & 1
        head += t > self.half.take(ef)
        s = b >> 63
        head ^= s
        head -= s
        head &= self.mask
        return head


class _PositDecode:
    """``PositFormat.to_double`` on arrays of patterns."""

    def __init__(self, fmt: PositFormat):
        self.fmt = fmt

    def __call__(self, bits: np.ndarray) -> np.ndarray:
        fmt = self.fmt
        es = fmt.es
        w = fmt.nbits - 1
        bits = bits & fmt.mask
        nar_m = bits == fmt.nar_bits
        zero_m = bits == 0
        neg = (bits & fmt.sign_mask) != 0
        mag = np.where(neg, (-bits) & fmt.mask, bits)

        first = (mag >> (w - 1)) & 1
        t = np.where(first == 1, ~mag & ((1 << w) - 1), mag)
        # regime run length: leading zeros of t within w bits; int->
        # float64 is exact below 2**53, so the exponent field of the
        # conversion is floor(log2 t)
        fl = (t.astype(np.float64).view(np.int64) >> 52) - 1023
        fl = np.where(t > 0, fl, -1)           # t == 0: run covers all w bits
        run = w - 1 - fl
        k = np.where(first == 1, run - 1, -run)

        rem_w = np.maximum(w - run - 1, 0)
        rem = mag & (np.left_shift(1, rem_w) - 1)
        e = np.where(rem_w >= es,
                     rem >> np.maximum(rem_w - es, 0),
                     np.left_shift(rem, np.maximum(es - rem_w, 0)))
        fw = np.maximum(rem_w - es, 0)
        frac = rem & (np.left_shift(1, fw) - 1)
        scale = (k << es) + e
        sig = np.left_shift(np.int64(1), fw) + frac
        # exact: sig < 2**53 and the value is a normal double
        val = np.ldexp(sig.astype(np.float64), (scale - fw).astype(np.int32))
        val = np.where(neg, -val, val)
        val[zero_m] = 0.0
        val[nar_m] = np.nan
        return val


# --------------------------------------------------------------------------
# scalar fallbacks (exotic formats): correct, merely not vectorized


def _scalar_round(fmt: TargetFormat) -> Callable:
    def kernel(xs: np.ndarray) -> np.ndarray:
        return np.array([fmt.round_double(x) for x in xs.tolist()],
                        dtype=np.float64)

    return kernel


def _scalar_bits(fmt: TargetFormat) -> Callable:
    def kernel(xs: np.ndarray) -> np.ndarray:
        return np.array([fmt.from_double(x) for x in xs.tolist()],
                        dtype=np.uint64)

    return kernel


# --------------------------------------------------------------------------
# dispatch


def round_kernel(fmt: TargetFormat) -> Callable:
    """Array version of ``target_rounder(fmt)``: doubles -> T-rounded
    doubles, bit-identical per lane."""
    if fmt is FLOAT32:
        return _f32_round
    if isinstance(fmt, FloatFormat):
        enc = _FloatEncode(fmt)
        dec = _FloatDecode(fmt)

        def kernel(xs: np.ndarray) -> np.ndarray:
            return dec(enc(xs))

        return kernel
    if isinstance(fmt, PositFormat) and _posit_vectorizable(fmt):
        enc = _PositEncode(fmt)
        dec = _PositDecode(fmt)

        def kernel(xs: np.ndarray) -> np.ndarray:
            return dec(enc(xs))

        return kernel
    return _scalar_round(fmt)


def decode_kernel(fmt: TargetFormat) -> Callable:
    """Array decoder: T bit patterns (uint64) -> the doubles the runtime
    receives, lane-identical to
    :func:`repro.eval.adversarial.generators.input_value`.

    Like ``input_value`` (and unlike the bare ``to_double``), the IEEE
    negative-zero pattern decodes to ``-0.0`` — ``sinpi``/``cospi``
    results depend on the sign of zero, and serving requests carry raw
    bit patterns exactly as the frozen adversarial corpora do.
    """
    if isinstance(fmt, FloatFormat):
        dec = _FloatDecode(fmt)
        sign_mask = fmt.sign_mask

        def kernel(bits: np.ndarray) -> np.ndarray:
            val = dec(bits)
            val[bits == sign_mask] = -0.0
            return val

        return kernel
    if isinstance(fmt, PositFormat) and _posit_vectorizable(fmt):
        dec = _PositDecode(fmt)

        def kernel(bits: np.ndarray) -> np.ndarray:
            # the posit decoder's shift arithmetic is written in int64
            return dec(bits.astype(np.int64))

        return kernel

    def kernel(bits: np.ndarray) -> np.ndarray:
        return np.array([fmt.to_double(int(b)) for b in bits.tolist()],
                        dtype=np.float64)

    return kernel


def bits_kernel(fmt: TargetFormat) -> Callable:
    """Array version of ``target_bits(fmt, .)``: doubles -> T bit
    patterns (uint64), bit-identical per lane."""
    if fmt is FLOAT32:
        return _f32_bits
    if isinstance(fmt, FloatFormat):
        enc = _FloatEncode(fmt)

        def kernel(xs: np.ndarray) -> np.ndarray:
            return enc(xs).astype(np.uint64)

        return kernel
    if isinstance(fmt, PositFormat) and _posit_vectorizable(fmt):
        enc = _PositEncode(fmt)

        def kernel(xs: np.ndarray) -> np.ndarray:
            return enc(xs).astype(np.uint64)

        return kernel
    return _scalar_bits(fmt)
