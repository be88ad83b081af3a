"""Polynomial objects with the exact evaluation order of the runtime.

The generated library evaluates polynomials with Horner's method in
double precision (paper section 4.1).  Because the generator must verify
that a candidate polynomial lands inside every (ulp-wide) reduced
interval *as evaluated at runtime*, the check and the runtime must perform
bit-identical sequences of double operations.  This module is that single
source of truth: :meth:`Polynomial.__call__` is the scalar runtime
evaluator, and :meth:`Polynomial.eval_many` is an operation-for-operation
vectorized equivalent used to validate millions of constraints quickly.

Polynomials are described by a tuple of monomial *exponents* so the
odd/even structures of the paper (e.g. the degree-5 odd sinpi polynomial,
``c1*r + c3*r**3 + c5*r**5``) evaluate without the wasted multiplies of a
dense representation:

* exponents in arithmetic progression with stride ``s`` starting at ``e0``
  evaluate as ``r**e0 * horner(r**s)``,
* anything else falls back to an explicit power-sum (never produced by
  our generators, but supported for completeness).
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import pack
from typing import Sequence

import numpy as np

__all__ = ["Polynomial", "horner_structure", "padding_shape", "unique_rows"]


def _pow_small(r, e: int):
    """r**e by repeated multiplication (same order scalar and ndarray)."""
    if e == 0:
        return r * 0 + 1.0
    acc = r
    for _ in range(e - 1):
        acc = acc * r
    return acc


def horner_structure(exponents: Sequence[int]) -> tuple[int, int] | None:
    """Return (start, stride) when exponents form an arithmetic progression.

    A single exponent is treated as progression with stride 1.  Returns
    None for irregular exponent sets.
    """
    exps = list(exponents)
    if not exps or sorted(exps) != exps or len(set(exps)) != len(exps):
        return None
    if len(exps) == 1:
        return exps[0], 1
    stride = exps[1] - exps[0]
    if stride <= 0:
        return None
    for a, b in zip(exps, exps[1:]):
        if b - a != stride:
            return None
    return exps[0], stride


def padding_shape(rows) -> tuple[tuple[int, ...], int, int]:
    """``(exponents, start, stride)`` every row zero-pads to, soundly.

    ``rows`` are ``(exponents, coefficients)`` pairs.  Zero-padding a
    short row turns its first Horner step into ``0.0*u + c_top``, which
    is bit-identical to starting from ``c_top`` unless ``c_top`` is a
    signed zero.  So padding is sound when every row's exponents are a
    prefix of one arithmetic progression and no short row ends in a
    zero coefficient; otherwise this raises ValueError naming the
    condition that fails.  The compact freezer and the batch lowering
    both decide with this one predicate.
    """
    exps = max((tuple(e) for e, _ in rows), key=len)
    shape = horner_structure(exps)
    if shape is None:
        raise ValueError(f"exponents {exps} are not an arithmetic "
                         "progression")
    for e, c in rows:
        if tuple(e) != exps[:len(e)]:
            raise ValueError(f"exponents {tuple(e)} are not a prefix of "
                             f"{exps}")
        if len(e) < len(exps) \
                and c[-1] == 0.0:  # fplint: disable=FP101 — exact-zero test
            raise ValueError(f"a {len(e)}-term row ends in a zero "
                             "coefficient")
    return (exps,) + shape


def unique_rows(rows) -> tuple[list, list[int]]:
    """Unique ``(exponents, coefficients)`` rows and the row→unique map.

    Identity is *bit* identity: two rows merge only when their exponent
    tuples match and every coefficient has the same 64-bit pattern
    (``struct.pack`` keys, so ``0.0`` and ``-0.0`` stay distinct).
    """
    uniq: list = []
    index: list[int] = []
    seen: dict = {}
    for exps, coeffs in rows:
        key = (tuple(exps), pack(f"<{len(coeffs)}d", *coeffs))
        j = seen.get(key)
        if j is None:
            j = seen[key] = len(uniq)
            uniq.append((tuple(exps), tuple(coeffs)))
        index.append(j)
    return uniq, index


def _compile_source(exponents: tuple[int, ...],
                    coefficients: tuple[float, ...]) -> str:
    """Straight-line Python source for the Horner evaluation.

    RLIBM-32 emits straight-line C for its generated polynomials; we emit
    straight-line Python once per polynomial so the runtime hot path pays
    no interpretation overhead (no loops, no structure dispatch).  The
    emitted expression performs exactly the operation sequence of the
    interpreted evaluator (tests assert bit-equality).
    """
    struct = horner_structure(exponents)
    cs = [repr(c) for c in coefficients]
    if struct is None:
        # irregular exponents: left-to-right accumulation from 0.0,
        # matching the interpreted evaluator for finite r
        body = "0.0"
        for c, e in zip(cs, exponents):
            pw = "*".join(["r"] * e) if e else None
            body = f"({body} + {c}*{pw})" if pw else f"({body} + {c})"
        return f"def _poly(r):\n    return {body}\n"
    start, stride = struct
    lines = ["def _poly(r):"]
    if len(cs) > 1:
        u_expr = "*".join(["r"] * stride)
        lines.append(f"    u = {u_expr}")
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = f"({acc}*u + {c})"
    else:
        acc = cs[0]
    if start:
        rpow = "*".join(["r"] * start)
        acc = f"{acc}*({rpow})" if start > 1 else f"{acc}*r"
    lines.append(f"    return {acc}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Polynomial:
    """``sum(c_j * r**e_j)`` with a fixed double-precision Horner order."""

    exponents: tuple[int, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.coefficients):
            raise ValueError("exponents/coefficients length mismatch")
        if not self.exponents:
            raise ValueError("empty polynomial")

    @property
    def degree(self) -> int:
        return max(self.exponents)

    @property
    def terms(self) -> int:
        return len(self.exponents)

    @property
    def compiled(self):
        """The straight-line evaluator (built once, then cached)."""
        fn = self.__dict__.get("_compiled")
        if fn is None:
            ns: dict = {}
            exec(compile(_compile_source(self.exponents, self.coefficients),
                         "<polynomial>", "exec"), ns)
            fn = ns["_poly"]
            object.__setattr__(self, "_compiled", fn)
        return fn

    def __call__(self, r: float) -> float:
        """Evaluate at a double with the runtime's Horner order."""
        struct = horner_structure(self.exponents)
        cs = self.coefficients
        if struct is None:
            acc = 0.0
            for c, e in zip(cs, self.exponents):
                acc = acc + c * _pow_small(r, e)
            return acc
        start, stride = struct
        u = _pow_small(r, stride) if len(cs) > 1 else 0.0
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * u + c
        if start:
            acc = acc * _pow_small(r, start)
        return acc

    def eval_many(self, rs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, bit-identical to :meth:`__call__`.

        numpy float64 arithmetic performs the same IEEE double operations
        element-wise (no FMA contraction), so each lane reproduces the
        scalar Horner result exactly; tests assert this.
        """
        rs = np.asarray(rs, dtype=np.float64)
        struct = horner_structure(self.exponents)
        cs = self.coefficients
        if struct is None:
            acc = np.zeros_like(rs)
            for c, e in zip(cs, self.exponents):
                acc = acc + c * _pow_small(rs, e)
            return acc
        start, stride = struct
        u = _pow_small(rs, stride) if len(cs) > 1 else np.zeros_like(rs)
        acc = np.full_like(rs, cs[-1])
        # in-place Horner steps: the same multiply and add per lane as
        # the scalar path, without a temporary per step
        for c in reversed(cs[:-1]):
            acc *= u
            acc += c
        if start:
            acc *= _pow_small(rs, start)
        return acc

    def prefix(self, nterms: int) -> "Polynomial":
        """The polynomial truncated to its first ``nterms`` monomials."""
        if not 1 <= nterms <= len(self.exponents):
            raise ValueError("bad prefix length")
        return Polynomial(self.exponents[:nterms], self.coefficients[:nterms])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{c!r}*r^{e}" for c, e in zip(self.coefficients, self.exponents)]
        return " + ".join(parts)
