"""Differential tests of the batch rounding kernels and the batch
sinpi/cospi split against their scalar twins.

* The table-driven posit encoder (``bits_kernel`` / ``round_kernel``)
  against ``PositFormat.from_double`` / ``round_double``: exhaustively
  over posit16 values, rounding ties and their double neighbours; on
  the first and last double of every posit32 table binade, the shift-54
  regime binades, the saturation frontiers and the specials; and on a
  seeded sweep of random double bit patterns.
* ``_split_to_half_batch`` (floor-based) against ``_split_to_half``
  (``math.fmod``) per lane on a stratified set; the exhaustive float32
  sweep is ``slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.rounding import (_posit_table, _posit_vectorizable,
                                  bits_kernel, round_kernel)
from repro.posit.format import POSIT8, POSIT16, POSIT32, PositFormat
from repro.rangereduction.sinpicospi import (_split_to_half,
                                             _split_to_half_batch)

pytestmark = pytest.mark.batch

_FRAC52 = (1 << 52) - 1


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _with_neighbours(xs: np.ndarray) -> np.ndarray:
    xs = xs[np.isfinite(xs)]
    return np.concatenate([xs, np.nextafter(xs, np.inf),
                           np.nextafter(xs, -np.inf)])


def _specials(fmt: PositFormat) -> np.ndarray:
    """Signed zeros, non-finites, double subnormals, and minpos/maxpos
    with one double ulp either side."""
    edges = np.array([fmt._minpos_f, fmt._maxpos_f])
    xs = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        _from_bits([1, 2, 0x0008000000000000, _FRAC52]),   # subnormals
        _with_neighbours(edges),
    ])
    return np.concatenate([xs, -xs])


def assert_encoder_matches(fmt: PositFormat, xs: np.ndarray,
                           check_round: bool = True) -> None:
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    with np.errstate(all="raise"):
        got = bits_kernel(fmt)(xs)
        vals = round_kernel(fmt)(xs) if check_round else None
    want = [fmt.from_double(x) for x in xs.tolist()]
    bad = np.flatnonzero(got != np.array(want, dtype=np.uint64))
    assert bad.size == 0, (
        f"{fmt}: bits differ at x={xs[bad[0]]!r}: batch "
        f"{int(got[bad[0]]):#x}, scalar {want[bad[0]]:#x}")
    if check_round:
        ref = np.array([fmt.round_double(x) for x in xs.tolist()])
        bad = np.flatnonzero(vals.view(np.uint64) != ref.view(np.uint64))
        assert bad.size == 0, (
            f"{fmt}: round differs at x={xs[bad[0]]!r}: batch "
            f"{vals[bad[0]]!r}, scalar {ref[bad[0]]!r}")


def test_shipped_posits_vectorize():
    for fmt in (POSIT8, POSIT16, POSIT32):
        assert _posit_vectorizable(fmt)


def test_posit16_exhaustive_values_ties_and_neighbours():
    fmt = POSIT16
    ext = PositFormat(fmt.nbits + 1, fmt.es)
    ords = range(-fmt.maxpos_bits, fmt.maxpos_bits + 1)
    values = np.array([fmt.to_double(fmt.from_ordinal(n)) for n in ords])
    # the bit-string RNE tie between neighbours is the posit17 pattern
    # between them; where the regime truncates exponent bits it is not
    # the arithmetic midpoint, so both are swept
    ties = np.array([ext.to_double(ext.from_ordinal(2 * n + 1))
                     for n in ords[:-1]])
    mids = (values[:-1] + values[1:]) * 0.5
    xs = np.unique(np.concatenate([_with_neighbours(values),
                                   _with_neighbours(ties),
                                   _with_neighbours(mids)]))
    assert_encoder_matches(fmt, np.concatenate([xs, _specials(fmt)]))


def test_posit8_exhaustive_ties():
    fmt = POSIT8
    ext = PositFormat(fmt.nbits + 1, fmt.es)
    ords = range(-fmt.maxpos_bits, fmt.maxpos_bits)
    ties = np.array([ext.to_double(ext.from_ordinal(2 * n + 1))
                     for n in ords])
    assert_encoder_matches(fmt, np.concatenate([_with_neighbours(ties),
                                                _specials(fmt)]))


def test_posit32_every_table_binade_edge():
    ef = np.arange(2048, dtype=np.uint64) << np.uint64(52)
    xs = _from_bits(np.concatenate([ef, ef | np.uint64(_FRAC52)]))
    xs = np.concatenate([xs, -xs, _specials(POSIT32)])
    assert_encoder_matches(POSIT32, xs)


def test_posit32_shift54_regime_binades():
    # regime k = 29 and k = -30 fill all 31 bits: the RNE shift is
    # es + 52 = 54, so the exponent bits themselves are rounded away
    shift = _posit_table(POSIT32)[0]
    rng = np.random.default_rng(54)
    lanes = []
    for lo in (116, -120):
        assert all(shift[1023 + s] == 54 for s in range(lo, lo + 4))
        lanes.append(np.ldexp(1.0 + rng.random(20000),
                              rng.integers(lo, lo + 4, 20000)))
        # exact posit values and ties of the binades: every 2**s
        lanes.append(np.ldexp(1.0, np.arange(lo, lo + 5)))
    xs = _with_neighbours(np.concatenate(lanes))
    assert_encoder_matches(POSIT32, np.concatenate([xs, -xs]))


def test_posit32_exact_values_and_ties_sample():
    fmt = POSIT32
    ext = PositFormat(fmt.nbits + 1, fmt.es)
    rng = np.random.default_rng(32)
    ords = rng.integers(-fmt.maxpos_bits, fmt.maxpos_bits, 4000).tolist()
    values = np.array([fmt.to_double(fmt.from_ordinal(n)) for n in ords])
    ties = np.array([ext.to_double(ext.from_ordinal(2 * n + 1))
                     for n in ords])
    assert_encoder_matches(fmt, np.concatenate([_with_neighbours(values),
                                                _with_neighbours(ties)]))


def test_posit32_random_bit_patterns():
    rng = np.random.default_rng(20211)
    xs = rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64).view(np.float64)
    # the decode half is covered above; here the encoder alone on 1M
    # lanes, and both kernels on a 64K slice
    assert_encoder_matches(POSIT32, xs, check_round=False)
    assert_encoder_matches(POSIT32, xs[:1 << 16])


def test_posit_table_never_carries_past_maxpos():
    # the encoder has no saturation clamp: the largest head a rounded
    # row can produce (all tail bits set, rounded up) must be <= maxpos
    for fmt in (POSIT8, POSIT16, POSIT32):
        shift, prefix, rmask, half = _posit_table(fmt)
        rounded = rmask > 0
        rounded[0] = False
        tail = (1 << (52 + fmt.es)) - 1
        top = prefix[rounded] + (tail >> shift[rounded]) + 1
        assert top.max() <= fmt.maxpos_bits


def test_posit_table_is_shared_per_format():
    a = _posit_table(POSIT32)
    b = _posit_table(PositFormat(32, 2, "posit32"))
    assert a is b


def test_non_vectorizable_posit_takes_scalar_path():
    fmt = PositFormat(60, 2)           # up to 55 fraction bits
    assert not _posit_vectorizable(fmt)
    rng = np.random.default_rng(60)
    xs = np.ldexp(rng.random(300) + 0.5, rng.integers(-240, 240, 300))
    assert_encoder_matches(fmt, np.concatenate([xs, _specials(fmt)]))


# --------------------------------------------------------------------------
# sinpi/cospi split


def _split_lanes() -> np.ndarray:
    """Stratified lanes of the batch split's domain [0, 2**23)."""
    parts = [np.array([0.0])]
    # first and last double of every binade below 2**23, subnormals too
    ef = np.arange(0, 1023 + 23, dtype=np.uint64) << np.uint64(52)
    parts.append(_from_bits(np.concatenate(
        [ef[1:], ef | np.uint64(_FRAC52)])))
    parts.append(_from_bits([1, 2, 3, 0x0008000000000000]))
    # every integer and half-integer below 2**13, then the first and
    # last 256 of each binade up to 2**23, each with one ulp either side
    grid = [np.arange(0, 2 ** 14) * 0.5]
    for s in range(13, 23):
        lo, hi = 2.0 ** s, 2.0 ** (s + 1)
        grid += [lo + np.arange(512) * 0.5, hi - np.arange(1, 513) * 0.5]
    parts.append(_with_neighbours(np.concatenate(grid)))
    xs = np.concatenate(parts)
    return np.unique(xs[(xs >= 0.0) & (xs < 2.0 ** 23)])


def test_split_matches_fmod_per_lane():
    ax = _split_lanes()
    ge1, refl, l2 = _split_to_half_batch(ax)
    for i, x in enumerate(ax.tolist()):
        k, m, want = _split_to_half(x)
        assert (bool(ge1[i]), bool(refl[i])) == (k == 1, m == 1), x
        assert np.float64(l2[i]).tobytes() == np.float64(want).tobytes(), x


@pytest.mark.slow
def test_split_exhaustive_float32():
    # every float32 in (0, 2**23), against the C fmod that math.fmod
    # wraps (np.fmod), in 2**22-lane chunks
    end = 0x4B000000                       # bits of 2**23
    step = 1 << 22
    for lo in range(1, end, step):
        ax = np.arange(lo, min(lo + step, end), dtype=np.uint32) \
            .view(np.float32).astype(np.float64)
        j = np.fmod(ax, 2.0)
        ge1 = j >= 1.0
        l = np.where(ge1, j - 1.0, j)
        refl = l > 0.5
        l2 = np.where(refl, 1.0 - l, l)
        g, r, got = _split_to_half_batch(ax)
        assert np.array_equal(g, ge1) and np.array_equal(r, refl)
        assert np.array_equal(got.view(np.uint64), l2.view(np.uint64)), lo
