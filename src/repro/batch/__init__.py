"""Vectorized batch evaluation of generated functions.

The runtime path of a :class:`~repro.core.generator.GeneratedFunction`
is one pure-Python call per input.  This package runs the *same*
pipeline — special cases, range reduction RR_H, shift+mask sub-domain
lookup on the binary64 bit pattern, per-sub-domain Horner, output
compensation OC_H, final rounding RN_T — on numpy float64 arrays,
element-for-element **bit-identical** to the scalar path (see
DESIGN.md, "Scalar/batch bit-identity").

Layout
------

``engine``    :class:`~repro.batch.engine.BatchFunction` — the array
              pipeline behind ``GeneratedFunction.batch``
``kernels``   vectorized piecewise-polynomial evaluation: ``lower``
              turns each reduced function into one gather table (index
              from uint64 bit ops, sign folded into the top bit) and
              ``build_kernel`` emits its straight-line Horner
``rounding``  vectorized final rounding / bit-pattern encoding for
              float32, parametric IEEE formats and posits
``reduce``    shared numpy helpers for the per-reduction
              ``special_batch`` / ``reduce_batch`` /
              ``compensate_batch`` methods in ``repro.rangereduction``

Imports are lazy (module ``__getattr__``) so ``repro.rangereduction``
modules can reference :mod:`repro.batch.reduce` without creating an
import cycle through the engine (which imports ``repro.core``).
"""

from __future__ import annotations

__all__ = ["BatchFunction", "bits_kernel", "compile_approx", "round_kernel"]

_LAZY = {
    "BatchFunction": "repro.batch.engine",
    "bits_kernel": "repro.batch.rounding",
    "round_kernel": "repro.batch.rounding",
    "compile_approx": "repro.batch.kernels",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
