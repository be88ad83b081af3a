"""Tests for the posit codec (repro.posit.format)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.fp.bits import fraction_to_double, next_double, prev_double
from repro.posit.format import (POSIT8, POSIT16, POSIT32, PositFormat,
                                posit_rounding_interval)


class TestParameters:
    def test_posit32(self):
        assert POSIT32.useed == 16
        assert POSIT32.maxpos == Fraction(2) ** 120
        assert POSIT32.minpos == Fraction(1, 2 ** 120)
        assert POSIT32.nar_bits == 0x80000000

    def test_posit16(self):
        assert POSIT16.useed == 4
        assert POSIT16.maxpos == Fraction(2) ** 28

    def test_posit8(self):
        assert POSIT8.useed == 2
        assert POSIT8.maxpos == Fraction(2) ** 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            PositFormat(2, 0)


class TestDecode:
    def test_zero_and_nar(self):
        assert POSIT32.to_fraction(0) == 0
        assert math.isnan(POSIT32.to_double(POSIT32.nar_bits))
        with pytest.raises(ValueError):
            POSIT32.to_fraction(POSIT32.nar_bits)

    def test_one(self):
        assert POSIT32.to_fraction(0x40000000) == 1
        assert POSIT16.to_fraction(0x4000) == 1
        assert POSIT8.to_fraction(0x40) == 1

    def test_maxpos_minpos(self):
        assert POSIT32.to_fraction(POSIT32.maxpos_bits) == POSIT32.maxpos
        assert POSIT32.to_fraction(1) == POSIT32.minpos

    def test_negative_two_complement(self):
        one = 0x40000000
        minus_one = (-one) & POSIT32.mask
        assert POSIT32.to_fraction(minus_one) == -1

    def test_posit8_known_values(self):
        # posit8 es=0: 0x60 = 2, 0x50 = 1.5, 0x48 = 1.25
        assert POSIT8.to_fraction(0x60) == 2
        assert POSIT8.to_fraction(0x50) == Fraction(3, 2)

    def test_exponent_padding(self):
        # posit32 pattern with regime run leaving fewer than es bits:
        # 0b0111...10 style extremes decode without error
        for bits in (0x7FFFFFFE, 0x7FFFFFFF, 0x00000003):
            v = POSIT32.to_fraction(bits)
            assert v > 0


class TestDoubleDecode:
    """``to_double`` decodes with integer ops; the exact ``Fraction``
    route is the reference, bit for bit (signed zero included)."""

    @staticmethod
    def _same(fmt, bits):
        got = fmt.to_double(bits)
        want = fraction_to_double(fmt.to_fraction(bits))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want, hex(bits)

    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16, PositFormat(12, 3)],
                             ids=str)
    def test_exhaustive(self, fmt):
        assert math.isnan(fmt.to_double(fmt.nar_bits))
        for bits in fmt.enumerate_all():
            self._same(fmt, bits)

    def test_posit32_stratified(self):
        # a run ending at every bit position, both run polarities, then
        # seeded random patterns; each with its negation
        body = [((1 << w) - 1) << (31 - w) for w in range(1, 32)]
        body += [1 << w for w in range(31)]
        rng = random.Random(3232)
        body += [rng.randrange(1, POSIT32.maxpos_bits + 1)
                 for _ in range(20000)]
        for b in body:
            self._same(POSIT32, b)
            self._same(POSIT32, (-b) & POSIT32.mask)

    def test_wide_format_keeps_fraction_route(self):
        # 55 fraction bits: to_double must round, not truncate
        fmt = PositFormat(60, 2)
        rng = random.Random(60)
        for _ in range(2000):
            self._same(fmt, rng.randrange(1, fmt.maxpos_bits + 1))
        # the widest scale a format can have: maxpos = 2**1023 and
        # minpos = 2**-1023, a double subnormal; its neighbours and
        # the patterns just below maxpos round from ~1020-bit
        # significands
        fmt = PositFormat(1025, 0)
        body = [1, 2, 3, fmt.maxpos_bits, fmt.maxpos_bits - 1,
                fmt.maxpos_bits - 2, 1 << 1022, (1 << 1022) + 1]
        body += [rng.randrange(1, fmt.maxpos_bits + 1) for _ in range(200)]
        for b in body:
            self._same(fmt, b)
            self._same(fmt, (-b) & fmt.mask)


class TestEncode:
    def test_exhaustive_round_trip_posit8(self):
        for bits in POSIT8.enumerate_all():
            if POSIT8.is_zero(bits):
                continue
            v = POSIT8.to_fraction(bits)
            assert POSIT8.from_fraction(v) == bits

    def test_exhaustive_round_trip_posit16(self):
        for bits in POSIT16.enumerate_all():
            if POSIT16.is_zero(bits):
                continue
            assert POSIT16.from_fraction(POSIT16.to_fraction(bits)) == bits

    def test_saturation(self):
        assert POSIT32.from_fraction(Fraction(2) ** 500) == POSIT32.maxpos_bits
        assert POSIT32.from_fraction(Fraction(1, 2 ** 500)) == POSIT32.minpos_bits
        assert POSIT32.from_fraction(-(Fraction(2) ** 500)) == \
            (-POSIT32.maxpos_bits) & POSIT32.mask

    def test_nonfinite_to_nar(self):
        assert POSIT32.from_double(math.inf) == POSIT32.nar_bits
        assert POSIT32.from_double(math.nan) == POSIT32.nar_bits

    def test_tie_to_even_pattern(self):
        # exact midpoint between two adjacent posit values -> even pattern
        a = POSIT8.to_fraction(0x48)
        b = POSIT8.to_fraction(0x49)
        mid = (a + b) / 2
        assert POSIT8.from_fraction(mid) == 0x48  # 0x48 is even

    @given(st.integers(min_value=-(2 ** 31 - 1), max_value=2 ** 31 - 1))
    @settings(max_examples=300)
    def test_posit32_round_trip_random(self, n):
        bits = POSIT32.from_ordinal(n)
        if POSIT32.is_zero(bits):
            return
        v = POSIT32.to_fraction(bits)
        assert POSIT32.from_fraction(v) == bits
        # every posit32 value is exactly representable in double
        assert Fraction(float(v)) == v


class TestOrdering:
    def test_value_order_is_ordinal_order_posit8(self):
        vals = [POSIT8.to_fraction(b) for b in POSIT8.enumerate_all()]
        assert vals == sorted(vals)

    def test_next_up_down(self):
        one = POSIT32.from_fraction(Fraction(1))
        up = POSIT32.next_up(one)
        assert POSIT32.to_fraction(up) - 1 == Fraction(1, 2 ** 27)
        assert POSIT32.next_down(up) == one

    def test_saturating_neighbours(self):
        assert POSIT32.next_up(POSIT32.maxpos_bits) == POSIT32.maxpos_bits
        neg_max = (-POSIT32.maxpos_bits) & POSIT32.mask
        assert POSIT32.next_down(neg_max) == neg_max


class TestPositRoundingInterval:
    def test_exhaustive_posit8(self):
        for bits in POSIT8.enumerate_all():
            iv = posit_rounding_interval(POSIT8, bits)
            val = POSIT8.to_double(bits)
            assert POSIT8.from_double(val) == bits
            # infinite endpoints mean "saturates"; probe a huge finite double
            lo = -1e300 if iv.lo == -math.inf else iv.lo
            hi = 1e300 if iv.hi == math.inf else iv.hi
            assert POSIT8.from_double(lo) == bits
            assert POSIT8.from_double(hi) == bits
            if iv.lo not in (0.0, -math.inf):
                assert POSIT8.from_double(prev_double(iv.lo)) != bits
            if iv.hi not in (0.0, math.inf):
                assert POSIT8.from_double(next_double(iv.hi)) != bits

    def test_zero_is_exact_point(self):
        iv = posit_rounding_interval(POSIT32, 0)
        assert iv.lo == 0.0 == iv.hi

    def test_maxpos_saturates_above(self):
        iv = posit_rounding_interval(POSIT32, POSIT32.maxpos_bits)
        assert iv.hi == math.inf
        assert 1e308 in iv

    def test_minpos_extends_to_tiniest_double(self):
        iv = posit_rounding_interval(POSIT32, POSIT32.minpos_bits)
        assert iv.lo == 5e-324

    def test_nar_rejected(self):
        with pytest.raises(ValueError):
            posit_rounding_interval(POSIT32, POSIT32.nar_bits)
