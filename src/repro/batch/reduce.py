"""Shared numpy helpers for the vectorized range reductions.

The ``special_batch`` / ``reduce_batch`` / ``compensate_batch``
overrides in :mod:`repro.rangereduction` must perform, per lane, the
exact double-precision operation sequence of their scalar counterparts.
These helpers centralize the two integer idioms those methods need —

* :func:`rint_i64` — ``round(x)`` (round-half-to-even) as an int64
  array.  ``np.rint`` implements the same IEEE nearbyint the Python
  built-in does for doubles, and every ``k`` produced by the reductions
  is far below 2**53, so the float→int conversion is exact.
* :func:`trunc_i64` — ``int(x)`` (truncation toward zero).

— and the per-reduction table cache:

* :func:`table` — a read-only float64 view of a tuple-valued table
  attribute (``_tab``, ``_sinh_t``, ...), memoized *outside* the
  instance in a :class:`~weakref.WeakKeyDictionary`.  The cache must
  not live in ``rr.__dict__``: :func:`repro.libm.serialize._rr_state`
  serializes that dict verbatim into the frozen data modules, and a
  numpy array leaking into it would change the frozen representation.
  Each table is converted once, on its first batch call.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

__all__ = ["rint_i64", "table", "trunc_i64"]

_TABLE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def rint_i64(x: np.ndarray) -> np.ndarray:
    """``round(x)`` per lane (ties to even), as int64."""
    return np.rint(x).astype(np.int64)


def trunc_i64(x: np.ndarray) -> np.ndarray:
    """``int(x)`` per lane (truncation toward zero), as int64."""
    return x.astype(np.int64)


def table(owner: object, attr: str) -> np.ndarray:
    """Read-only float64 array view of ``getattr(owner, attr)``."""
    per = _TABLE_CACHE.get(owner)
    if per is None:
        per = {}
        _TABLE_CACHE[owner] = per
    arr = per.get(attr)
    if arr is None:
        arr = np.array(getattr(owner, attr), dtype=np.float64)
        arr.setflags(write=False)
        per[attr] = arr
    return arr
