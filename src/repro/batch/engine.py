"""The batch evaluation pipeline: arrays in, correctly rounded arrays out.

:class:`BatchFunction` runs the full runtime pipeline of one
(function, target) pair on numpy float64 arrays — special-case masks,
vectorized range reduction, shift+mask sub-domain lookup, gathered
Horner, output compensation, final rounding — with every lane
performing the exact IEEE double operation sequence of the scalar
``evaluate`` / ``evaluate_bits`` path (see DESIGN.md, "Scalar/batch
bit-identity").

Special-case lanes are *compressed out* before range reduction: the
arithmetic kernels only ever see the non-special lanes, so NaN/Inf and
out-of-domain inputs neither poison adjacent lanes nor trip spurious
floating-point warnings, exactly as the scalar path short-circuits
before reducing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.batch.rounding import bits_kernel, round_kernel
from repro.obs.profile import phase

__all__ = ["BatchFunction"]

#: cache-blocking width: the pipeline is memory-bound (every stage is a
#: full-array pass over ~a dozen float64 temporaries), so large batches
#: are processed in blocks whose working set stays L2-resident instead
#: of streaming each pass through DRAM — ~2x wall time on 1M-lane
#: sweeps.  Per-lane operation sequences are untouched (each lane sees
#: exactly the ops it would in one full-width pass), so bit-identity is
#: unaffected.
_BLOCK = 32768


def _as_input(xs) -> Tuple[np.ndarray, tuple]:
    """Validate and flatten a batch input; returns (flat copy, shape)."""
    arr = np.asarray(xs)
    if arr.dtype != np.float64:
        if arr.dtype.kind in "iuf":
            raise TypeError(
                f"batch inputs must be float64 (got {arr.dtype}); convert "
                "explicitly with xs.astype(np.float64) — an implicit upcast "
                "would silently evaluate different doubles than the caller "
                "holds"
            )
        raise TypeError(f"batch inputs must be float64 (got {arr.dtype})")
    # reshape(-1) yields a contiguous view when possible and a
    # contiguous copy otherwise; the pipeline never writes into it
    return arr.reshape(-1), arr.shape


class BatchFunction:
    """The array pipeline of one (function, target) pair.

    ``rr`` is the range reduction, ``kernels`` one reduced-input →
    value kernel per elementary function in ``rr.fn_names`` order (each
    built by :func:`~repro.batch.kernels.build_kernel`), ``target`` the
    output format.  ``GeneratedFunction.batch`` builds one from its
    frozen approximations; the serving workers
    (:mod:`repro.serve.tables`) build one from shared-memory views.
    Users reach it through ``evaluate_many`` / ``evaluate_bits_many``
    or the :mod:`repro.api` facade.
    """

    def __init__(self, rr, kernels, target):
        self.rr = rr
        self._kernels = list(kernels)
        self._round = round_kernel(target)
        self._bits = bits_kernel(target)

    def _compensated(self, xs: np.ndarray) -> np.ndarray:
        """Pipeline output *before* final rounding, per lane.

        Each stage is bracketed with :func:`repro.obs.profile.phase`
        for the opt-in profiler's attribution panel; when no profiler
        is active the brackets are the shared no-op (one global test
        per stage per *batch*, never per element).
        """
        rr = self.rr
        with phase("special"):
            mask, vals = rr.special_batch(xs)
        if not mask.any():                      # common case: no specials
            with phase("reduce"):
                r, ctx = rr.reduce_batch(xs)
            with phase("horner"):
                values = tuple(kernel(r) for kernel in self._kernels)
            with phase("compensate"):
                return rr.compensate_batch(values, ctx)
        out = np.empty_like(xs)
        out[mask] = vals
        rest = ~mask
        xr = xs[rest]
        if xr.size:
            with phase("reduce"):
                r, ctx = rr.reduce_batch(xr)
            with phase("horner"):
                values = tuple(kernel(r) for kernel in self._kernels)
            with phase("compensate"):
                out[rest] = rr.compensate_batch(values, ctx)
        return out

    def _run(self, xs, final, dtype) -> np.ndarray:
        flat, shape = _as_input(xs)
        n = flat.size
        if n <= _BLOCK:
            comp = self._compensated(flat)
            with phase("round"):
                return final(comp).reshape(shape)
        out = np.empty(n, dtype=dtype)
        for i in range(0, n, _BLOCK):
            comp = self._compensated(flat[i:i + _BLOCK])
            with phase("round"):
                out[i:i + _BLOCK] = final(comp)
        return out.reshape(shape)

    def evaluate_many(self, xs) -> np.ndarray:
        """Correctly rounded results (as doubles), same shape as ``xs``."""
        return self._run(xs, self._round, np.float64)

    def evaluate_bits_many(self, xs) -> np.ndarray:
        """Target bit patterns (uint64), same shape as ``xs``."""
        return self._run(xs, self._bits, np.uint64)
