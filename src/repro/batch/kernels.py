"""Vectorized piecewise-polynomial evaluation kernels.

Every reduced elementary function reaches numpy through one route:
:func:`lower` turns an :class:`~repro.core.piecewise.ApproxFunc` into
one :class:`Lowered` gather table, and :func:`build_kernel` turns that
table into an array kernel ``r -> values`` that is bit-identical, lane
for lane, to the compiled scalar closure ``af.compiled``:

* the sub-domain index is extracted exactly as
  :meth:`~repro.core.piecewise.PiecewisePolynomial.index_of` does —
  one shift and one mask of the reduced input's binary64 bit pattern,
  via a uint64 view of the float64 array;
* a two-sided approximation widens that field to cover both sides'
  fields and folds the sign in as the top index bit, using
  ``r < 0.0`` — exactly the scalar dispatch predicate, so ``-0.0`` and
  NaN lanes land on the ``pos`` side;
* the polynomials are evaluated with a *gathered-coefficient* Horner:
  ``cols[t]`` holds coefficient ``t`` of every unique sub-domain
  polynomial and an indirection maps each index key onto the row the
  scalar path would pick, so every lane runs the shared straight-line
  sequence ``acc = acc*u + c[idx]`` — the array analogue of RLIBM-32's
  generated C table lookup.

The gathered form needs every row to be a prefix of one shared
monomial progression (which is what the generator produces: Algorithm
3 hands every sub-domain the same candidate exponent list and the CEG
degree-lowering pass truncates it).  Shorter rows are padded with zero
coefficients; a padding step computes ``0.0*u + c`` which reproduces
``c`` bit-exactly *except* when ``c`` is a (signed) zero.  Both
conditions are :func:`~repro.core.polynomials.padding_shape`, the same
predicate the compact freezer uses; :func:`lower` refuses a table that
fails it (prove-or-refuse) rather than carrying a slower fallback.
Every shipped table lowers (``tests/test_compact.py``).

:func:`build_kernel` emits the Horner loop as straight-line Python once
per table shape and caches it process-wide: explicit ``acc *= u;
acc += c_t.take(idx, out=buf)`` statements, with ``_pow_small``
collapsed to literal multiplies.  A table with one unique row and no
sign fold uses scalar coefficients instead of gathers — the
:meth:`~repro.core.polynomials.Polynomial.eval_many` operation
sequence.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.core.piecewise import ApproxFunc
from repro.core.polynomials import padding_shape, unique_rows

__all__ = ["Lowered", "build_kernel", "compile_approx", "lower"]


class Lowered(NamedTuple):
    """One reduced function as a single gathered-Horner table.

    The index key of a lane is ``(bits(r) >> shift) & (2**width - 1)``,
    plus ``2**width`` when ``fold`` is set and ``r < 0.0``.  ``index``
    maps keys onto the columns of ``cols`` (None = identity); ``cols``
    is the zero-padded ``nterms x nuniq`` float64 matrix of unique rows,
    evaluated as ``r**start * horner(r**stride)``.
    """

    shift: int
    width: int
    fold: bool
    start: int
    stride: int
    cols: np.ndarray
    index: Optional[np.ndarray]


def lower(af: ApproxFunc) -> Lowered:
    """The :class:`Lowered` table of ``af``; ValueError when unprovable.

    A one-sided approximation keeps its side's bit field.  A two-sided
    one widens the field to span both sides' fields and folds the sign
    in as the top key bit; each (sign, wide-field) key maps to the row
    that side's own shift and mask select.
    """
    sides = [pp for pp in (af.pos, af.neg) if pp is not None]
    fold = len(sides) == 2
    spans = [(pp.shift, pp.index_bits) for pp in sides if pp.index_bits]
    if spans:
        shift = min(s for s, _ in spans)
        width = max(s + b for s, b in spans) - shift
    else:
        shift, width = 0, 0

    uniq, ids = unique_rows(
        [(p.exponents, p.coefficients) for pp in sides for p in pp.polys])
    ids = np.asarray(ids, dtype=np.intp)
    keys = []
    wide = np.arange(1 << width)
    for pp in sides:                   # pos first: sign bit 0
        side_ids, ids = ids[:len(pp.polys)], ids[len(pp.polys):]
        if pp.index_bits:
            sub = (wide >> (pp.shift - shift)) & ((1 << pp.index_bits) - 1)
        else:
            sub = np.zeros_like(wide)
        keys.append(side_ids[sub])
    index = np.concatenate(keys)

    try:
        exps, start, stride = padding_shape(uniq)
    except ValueError as e:
        raise ValueError(f"cannot lower table {af.name!r}: {e}") from None
    cols = np.zeros((len(exps), len(uniq)), dtype=np.float64)
    for i, (_, coeffs) in enumerate(uniq):
        cols[:len(coeffs), i] = coeffs
    if np.array_equal(index, np.arange(index.size)):
        index = None
    return Lowered(shift, width, fold, start, stride, cols, index)


_FACTORY_CACHE: dict[tuple, Callable] = {}


def _factory(nterms: int, start: int, stride: int, gather: bool,
             fold: bool, indexed: bool) -> Callable:
    """A ``(cols, index, shift, mask, signoff) -> kernel`` maker.

    ``gather=False`` binds ``cols`` as scalar coefficients (one unique
    row, no fold); otherwise every coefficient is gathered by the
    lane's key.  ``fold`` adds ``signoff`` to the key of ``r < 0.0``
    lanes; ``indexed`` routes the key through the ``index``
    indirection.  The key is a zero-cost int64 *view* of the masked
    uint64 field (every value is far below 2**63).
    """
    key = (nterms, start, stride, gather, fold, indexed)
    maker = _FACTORY_CACHE.get(key)
    if maker is not None:
        return maker

    def pow_expr(e: int) -> str:
        # mirror _pow_small's left-to-right multiply chain
        return " * ".join(["r"] * e)

    lines = ["def _maker(cols, index, shift, mask, signoff):"]
    for t in range(nterms):
        lines.append(f"    c{t} = cols[{t}]")
    lines.append("    def kernel(r):")
    if gather:
        lines.append("        idx = ((r.view(_u64) >> shift) & mask)"
                     ".view(_i64)")
        if fold:
            lines.append("        _add(idx, signoff, out=idx, "
                         "where=(r < _zero))")
        if indexed:
            lines.append("        idx = index.take(idx)")
        top = f"c{nterms - 1}.take(idx)"
        step = "_take(c{t}, idx, out=buf)"
    else:
        top = f"_full_like(r, c{nterms - 1})"
        step = "c{t}"
    # u before acc: with the temporaries allocated in the other order
    # the stride-2 (sinh/cosh/sinpi) kernels measured up to 2x slower
    if nterms > 1:
        lines.append(f"        u = {pow_expr(stride)}")
    lines.append(f"        acc = {top}")
    if nterms > 1 and gather:
        lines.append("        buf = _empty_like(acc)")
    for t in range(nterms - 2, -1, -1):
        lines.append("        acc *= u")
        lines.append(f"        acc += {step.format(t=t)}")
    if start:
        lines.append(f"        acc *= {pow_expr(start)}")
    lines.append("        return acc")
    lines.append("    return kernel")
    ns = {"_u64": np.uint64, "_i64": np.int64, "_take": np.take,
          "_empty_like": np.empty_like, "_full_like": np.full_like,
          "_add": np.add, "_zero": 0.0}
    exec(compile("\n".join(lines), f"<horner{key}>", "exec"), ns)
    maker = ns["_maker"]
    _FACTORY_CACHE[key] = maker
    return maker


#: largest pre-expanded table (doubles): below this, a key→unique
#: indirection is composed into the columns at kernel-build time,
#: trading a few KB of per-process memory for one less 1M-lane gather
#: per call
_EXPAND_MAX = 65536


def build_kernel(lw: Lowered) -> Callable:
    """The straight-line Horner kernel over one :class:`Lowered` table.

    ``lw.cols`` may be any float64 matrix — freshly lowered, or a
    read-only view into a shared-memory arena; the kernel never writes
    into it.  A small indirection is composed into the columns
    (``cols[t].take(index)`` reads the identical doubles with one hop
    instead of two); large ones are kept.
    """
    nterms, nuniq = lw.cols.shape
    if nuniq == 1 and not lw.fold:
        maker = _factory(nterms, lw.start, lw.stride, False, False, False)
        return maker([float(c) for c in lw.cols[:, 0]], None, 0, 0, 0)
    cols, index = list(lw.cols), lw.index
    if index is not None and index.size * nterms <= _EXPAND_MAX:
        cols, index = [c.take(index) for c in cols], None
    maker = _factory(nterms, lw.start, lw.stride, True, lw.fold,
                     index is not None)
    return maker(cols, index, np.uint64(lw.shift),
                 np.uint64((1 << lw.width) - 1), 1 << lw.width)


def compile_approx(af: ApproxFunc) -> Callable:
    """Array kernel bit-identical to ``af.compiled``, lane for lane."""
    return build_kernel(lower(af))
