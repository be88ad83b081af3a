"""Compact frozen-table layout: one base64 pool, no 11k-line literals.

The legacy freezing format (:func:`repro.libm.serialize.render_module`
before this module existed) rendered every double of a generated
function as a Python literal — readable, but the two worst tables
(``data_float32/{sinh,cosh}.py``) weighed ~550 KB / ~11.5k lines each
and dominated import time, cache footprint, and the serving arena.

The compact layout (``COMPACT_VERSION = 1``) keeps the module a plain
Python file but moves every double into one deduplicated *pool*:

* the pool is the concatenation of the unique float vectors of the
  module — coefficient columns, range-reduction tables, scalar
  constants — stored as packed little-endian 64-bit patterns, base64
  text in the source, decoded with one :func:`base64.b64decode` (C-level,
  unlike the pure-Python b85 codec) and one :func:`numpy.frombuffer`
  (no float literals to parse, ever);
* identical sub-domain polynomials are deduplicated: each piecewise
  side stores its *unique* polynomials once plus an index indirection
  mapping the ``2**index_bits`` sub-domain slots onto them;
* sides that pass the padding predicate
  (:func:`repro.core.polynomials.padding_shape` — the one the batch
  lowering :func:`repro.batch.kernels.lower` also decides with) are
  frozen as the zero-padded column matrix of their unique rows
  (``mode="packed"``); the rest store each unique row (``mode="raw"``);
* everything non-float (ints, strings, structure) stays a small
  literal skeleton in which floats are replaced by pool references.

Decoding is exact by construction: every double travels as its 64-bit
pattern, so ``decode(encode(data))`` reproduces the legacy ``DATA``
dict bit for bit (``tablecheck`` rule TC210 re-proves this for every
shipped module; :func:`render_compact` re-proves it at freeze time
before any file is written).  The dict is all that decoding yields:
:func:`repro.libm.runtime.load_function` builds every shipped function
as ``function_from_dict(decode(COMPACT))``.

Skeleton markers (a dict with one ``@``-key; literal dict keys may
never start with ``@``, enforced at encode time):

====================  ==================================================
``{"@f": off}``       the double ``pool[off]``
``{"@fv": [off,n]}``  a tuple of ``n`` doubles starting at ``pool[off]``
``{"@lv": [off,n]}``  the same, as a list
``{"@t": [...]}``     a tuple of decoded items (lists stay plain lists)
``{"@pp": {...}}``    one piecewise side (packed or raw, see above)
====================  ==================================================
"""

from __future__ import annotations

import base64
import struct
from typing import Any, Optional

import numpy as np

from repro.core.polynomials import padding_shape, unique_rows

__all__ = ["COMPACT_VERSION", "CompactError", "decode", "encode",
           "render_compact"]

COMPACT_VERSION = 1

#: index indirections longer than this are packed as base64 ``<u4``
#: (``index_b64``) instead of a literal int list (``index``)
_INDEX_LITERAL_MAX = 32

_MARKERS = ("@f", "@fv", "@lv", "@t", "@pp")


class CompactError(ValueError):
    """The compact blob is malformed, torn, or version-incompatible."""


# ---------------------------------------------------------------------------
# pool


class _PoolBuilder:
    """Deduplicating append-only store of little-endian doubles."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._offsets: dict[bytes, int] = {}

    def _add_raw(self, raw: bytes) -> int:
        """Offset (in doubles) of these exact bytes, appending once."""
        off = self._offsets.get(raw)
        if off is None:
            off = len(self._buf) // 8
            self._offsets[raw] = off
            self._buf += raw
        return off

    def add_vector(self, values) -> int:
        return self._add_raw(struct.pack(f"<{len(values)}d", *values))

    def add_array(self, arr: np.ndarray) -> int:
        return self._add_raw(
            np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def add_scalar(self, value: float) -> int:
        return self.add_vector((value,))

    @property
    def ndoubles(self) -> int:
        return len(self._buf) // 8

    def raw(self) -> bytes:
        return bytes(self._buf)

    def packed(self) -> str:
        return base64.b64encode(self.raw()).decode("ascii")


def _unpack_pool(comp: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(comp["pool"])
    except Exception as e:
        raise CompactError(f"pool is not valid base64: {e}") from e
    if len(raw) % 8:
        raise CompactError(f"pool holds {len(raw)} bytes, not a multiple "
                           "of 8 (torn blob)")
    pool = np.frombuffer(raw, dtype="<f8")
    if len(pool) != comp.get("pool_len"):
        raise CompactError(
            f"pool holds {len(pool)} doubles but pool_len says "
            f"{comp.get('pool_len')!r} (torn or stale blob)")
    # frombuffer over bytes is already non-writeable; assert, don't trust
    assert not pool.flags.writeable
    return pool


# ---------------------------------------------------------------------------
# generic skeleton codec


def _is_float_vector(v: Any) -> bool:
    return len(v) > 0 and all(type(x) is float for x in v)


def _encode_node(v: Any, pool: _PoolBuilder) -> Any:
    if type(v) is float:
        return {"@f": pool.add_scalar(v)}
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, tuple):
        if _is_float_vector(v):
            return {"@fv": [pool.add_vector(v), len(v)]}
        return {"@t": [_encode_node(x, pool) for x in v]}
    if isinstance(v, list):
        if _is_float_vector(v):
            return {"@lv": [pool.add_vector(v), len(v)]}
        return [_encode_node(x, pool) for x in v]
    if isinstance(v, dict):
        out = {}
        for k, item in v.items():
            if not isinstance(k, str) or k.startswith("@"):
                raise ValueError(
                    f"compact encode: unsupported dict key {k!r} (keys "
                    "must be strings not starting with '@')")
            out[k] = _encode_node(item, pool)
        return out
    raise ValueError(
        f"compact encode: unsupported value type {type(v).__name__}")


def _slice(pool: np.ndarray, off: Any, n: Any, what: str) -> np.ndarray:
    if type(off) is not int or type(n) is not int \
            or off < 0 or n < 0 or off + n > len(pool):
        raise CompactError(f"{what}: pool reference ({off!r}, {n!r}) "
                           f"outside the {len(pool)}-double pool")
    return pool[off:off + n]


def _decode_node(v: Any, pool: np.ndarray) -> Any:
    if isinstance(v, dict):
        marker = [k for k in v if k.startswith("@")]
        if not marker:
            return {k: _decode_node(item, pool) for k, item in v.items()}
        if len(v) != 1 or marker[0] not in _MARKERS:
            raise CompactError(f"malformed skeleton marker {v!r}")
        key, arg = marker[0], v[marker[0]]
        if key == "@f":
            return float(_slice(pool, arg, 1, "@f")[0])
        if key == "@fv":
            return tuple(_slice(pool, arg[0], arg[1], "@fv").tolist())
        if key == "@lv":
            return _slice(pool, arg[0], arg[1], "@lv").tolist()
        if key == "@t":
            return tuple(_decode_node(x, pool) for x in arg)
        return _decode_side(arg, pool)               # "@pp"
    if isinstance(v, list):
        return [_decode_node(x, pool) for x in v]
    return v


# ---------------------------------------------------------------------------
# piecewise sides: dedup + index indirection + padded columns


def _well_formed_side(pp: Any) -> bool:
    """Is this a legacy piecewise dict the @pp codec can round-trip?"""
    if not (isinstance(pp, dict) and type(pp) is dict
            and set(pp) == {"index_bits", "shift", "polys"}):
        return False
    bits, shift, polys = pp["index_bits"], pp["shift"], pp["polys"]
    if type(bits) is not int or type(shift) is not int or bits < 0 \
            or shift < 0 or type(polys) is not list \
            or len(polys) != 1 << bits:
        return False
    for row in polys:
        if not (type(row) is tuple and len(row) == 2):
            return False
        exps, coeffs = row
        if not (type(exps) is tuple and type(coeffs) is tuple
                and len(exps) == len(coeffs) and len(exps) > 0
                and all(type(e) is int for e in exps)
                and all(type(c) is float for c in coeffs)):
            return False
    return True


def _pack_side(pp: dict, pool: _PoolBuilder) -> dict:
    """The ``@pp`` payload for one well-formed legacy side dict."""
    bits, shift = pp["index_bits"], pp["shift"]
    uniq, index = unique_rows(pp["polys"])
    side: dict[str, Any] = {"index_bits": bits, "shift": shift}

    # packed mode stores the zero-padded columns, so it is only sound
    # where the batch lowering would accept the rows too
    try:
        shape = padding_shape(uniq) if bits > 0 else None
    except ValueError:
        shape = None
    if shape is not None:
        ref_exps, start, stride = shape
        nterms, nuniq = len(ref_exps), len(uniq)
        grid = [0.0] * (nterms * nuniq)
        for i, (_, coeffs) in enumerate(uniq):
            for t, c in enumerate(coeffs):
                grid[t * nuniq + i] = c
        side.update({
            "mode": "packed", "start": start, "stride": stride,
            "exps": list(ref_exps),
            "lens": [len(c) for _, c in uniq],
            "cols": [pool.add_vector(grid), nterms, nuniq],
        })
    else:
        side.update({
            "mode": "raw",
            "polys": [[list(e), pool.add_vector(c), len(c)]
                      for e, c in uniq],
        })
    if index != list(range(len(uniq))):
        if len(index) > _INDEX_LITERAL_MAX:
            raw = np.asarray(index, dtype="<u4").tobytes()
            side["index_b64"] = base64.b64encode(raw).decode("ascii")
        else:
            side["index"] = index
    return side


def _side_index(side: dict, nuniq: int, what: str) -> Optional[np.ndarray]:
    """The decoded slot→unique map as intp, or None for the identity."""
    if "index_b64" in side:
        try:
            raw = base64.b64decode(side["index_b64"])
        except Exception as e:
            raise CompactError(f"{what}: index is not valid base64: "
                               f"{e}") from e
        idx = np.frombuffer(raw, dtype="<u4").astype(np.intp)
    elif "index" in side:
        idx = np.asarray(side["index"], dtype=np.intp)
    else:
        return None
    bits = side["index_bits"]
    if len(idx) != 1 << bits:
        raise CompactError(f"{what}: index has {len(idx)} entries for "
                           f"2**{bits} sub-domains")
    if idx.size and (idx.min() < 0 or idx.max() >= nuniq):
        raise CompactError(f"{what}: index points outside the "
                           f"{nuniq} unique polynomials")
    return idx


def _decode_side(side: Any, pool: np.ndarray) -> dict:
    """The legacy side dict of one ``@pp`` payload."""
    if not isinstance(side, dict) or "mode" not in side:
        raise CompactError(f"malformed @pp payload {side!r}")
    bits, shift = side.get("index_bits"), side.get("shift")
    if type(bits) is not int or type(shift) is not int:
        raise CompactError("@pp payload missing index_bits/shift ints")
    if side["mode"] == "packed":
        exps = tuple(side["exps"])
        lens = side["lens"]
        off, nterms, nuniq = side["cols"]
        if len(lens) != nuniq or nterms != len(exps):
            raise CompactError("@pp packed payload is inconsistent "
                               "(lens/exps/cols disagree)")
        cols = _slice(pool, off, nterms * nuniq, "@pp cols") \
            .reshape(nterms, nuniq)
        uniq = []
        for i, n in enumerate(lens):
            if not 1 <= n <= nterms:
                raise CompactError(f"@pp packed lens[{i}]={n!r} outside "
                                   f"[1, {nterms}]")
            uniq.append((exps[:n], tuple(cols[:n, i].tolist())))
        idx = _side_index(side, nuniq, "@pp packed")
    elif side["mode"] == "raw":
        uniq = [(tuple(e), tuple(_slice(pool, off, n, "@pp raw").tolist()))
                for e, off, n in side["polys"]]
        idx = _side_index(side, len(uniq), "@pp raw")
    else:
        raise CompactError(f"unknown @pp mode {side['mode']!r}")
    slots = idx.tolist() if idx is not None else range(len(uniq))
    polys = [uniq[j] for j in slots]
    if len(polys) != 1 << bits:
        raise CompactError(f"@pp expands to {len(polys)} slots for "
                           f"2**{bits} sub-domains")
    return {"index_bits": bits, "shift": shift, "polys": polys}


# ---------------------------------------------------------------------------
# module-level encode / decode


def encode(data: dict) -> dict:
    """The compact literal form of one legacy ``DATA`` dict.

    Pure literals only — ints, strings, bools, lists, dicts, and the
    base64 pool string — so the rendered module parses without building
    a single float object.  Raises :class:`ValueError` on values the
    skeleton codec cannot represent faithfully.
    """
    pool = _PoolBuilder()
    skel: dict[str, Any] = {}
    for key in sorted(data):
        value = data[key]
        if key == "approx" and isinstance(value, dict):
            approx: dict[str, Any] = {}
            for name, sides in value.items():
                if (isinstance(sides, dict) and type(sides) is dict
                        and set(sides) == {"neg", "pos"}):
                    approx[name] = {
                        side: ({"@pp": _pack_side(pp, pool)}
                               if _well_formed_side(pp)
                               else _encode_node(pp, pool))
                        for side, pp in sides.items()
                    }
                else:
                    approx[name] = _encode_node(sides, pool)
            skel[key] = approx
        else:
            skel[key] = _encode_node(value, pool)
    return {
        "version": COMPACT_VERSION,
        "function": data.get("function"),
        "target": data.get("target"),
        "rr_kind": data.get("rr_kind"),
        "pool_len": pool.ndoubles,
        "pool": pool.packed(),
        "data": skel,
    }


def decode(comp: dict) -> dict:
    """The exact legacy ``DATA`` dict of a compact blob."""
    if not isinstance(comp, dict):
        raise CompactError(f"COMPACT is {type(comp).__name__}, not dict")
    if comp.get("version") != COMPACT_VERSION:
        raise CompactError(
            f"compact layout version {comp.get('version')!r}; this build "
            f"reads {COMPACT_VERSION}")
    for key in ("pool", "pool_len", "data"):
        if key not in comp:
            raise CompactError(f"COMPACT missing {key!r}")
    pool = _unpack_pool(comp)
    skel = comp["data"]
    if not isinstance(skel, dict):
        raise CompactError("COMPACT['data'] must be a dict skeleton")
    return {key: _decode_node(value, pool) for key, value in skel.items()}


# ---------------------------------------------------------------------------
# rendering


_CHUNK = 96  # base64 chars per source line


def _verify_compact(source: str, comp: dict, data: dict) -> None:
    """Freeze-time guard: the compact module must re-read losslessly.

    * the rendered source may not contain a single float literal — all
      doubles travel through the pool, so any float constant in the AST
      is a formatting bug;
    * executing the source must reproduce the ``COMPACT`` dict exactly,
      and decoding that must reproduce ``data`` bit for bit.
    """
    import ast

    from repro.libm.serialize import _deep_equal

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            raise ValueError(
                f"render_compact: float literal at line {node.lineno}; "
                "all doubles must travel through the pool")
    ns: dict[str, Any] = {}
    exec(compile(source, "<render_compact>", "exec"), ns)
    if ns.get("COMPACT") != comp:
        raise ValueError(
            "render_compact: rendered source does not round-trip the "
            "COMPACT blob")
    if not _deep_equal(decode(ns["COMPACT"]), data):
        raise ValueError(
            "render_compact: decoded COMPACT does not reproduce the "
            "frozen data bit-for-bit (structure was lost in encoding)")


def render_compact(data: dict) -> str:
    """Render one legacy ``DATA`` dict as a compact source module.

    The result is verified before it is returned (see
    :func:`_verify_compact`); rendering that would freeze a torn or
    lossy blob raises instead of writing bad data.  The module exposes
    ``DATA`` lazily through PEP 562, so every legacy consumer
    (tablecheck, certify, diffing) keeps reading the dict form.
    """
    import pprint

    comp = encode(data)
    pool_str = comp["pool"]
    chunks = "\n".join(
        f'    "{pool_str[i:i + _CHUNK]}"'
        for i in range(0, len(pool_str), _CHUNK)) or '    ""'
    skel = pprint.pformat(comp["data"], width=100, sort_dicts=True)
    skel = skel.replace("\n", "\n    ")
    source = (
        f'"""Generated coefficient data for {data["function"]} '
        f'({data["target"]}) — compact layout '
        f'v{COMPACT_VERSION}.\n\nProduced by the RLIBM-32 pipeline '
        '(tools/generate_*.py); do not edit by hand.\nEvery double '
        'lives in the base64 pool below as little-endian 64-bit\n'
        'patterns; ``repro.libm.compact.decode`` reproduces the legacy '
        '``DATA`` dict\nbit for bit (accessing ``DATA`` on this module '
        'does exactly that).\n"""\n\n'
        f"# {comp['pool_len']} deduplicated doubles, little-endian, "
        "base64\n"
        f"_POOL = (\n{chunks}\n)\n\n"
        "COMPACT = {\n"
        f"    \"version\": {comp['version']},\n"
        f"    \"function\": {comp['function']!r},\n"
        f"    \"target\": {comp['target']!r},\n"
        f"    \"rr_kind\": {comp['rr_kind']!r},\n"
        f"    \"pool_len\": {comp['pool_len']},\n"
        "    \"pool\": _POOL,\n"
        f"    \"data\": {skel},\n"
        "}\n\n\n"
        "def __getattr__(name):\n"
        '    """PEP 562: decode the legacy DATA dict on first access."""\n'
        "    if name != \"DATA\":\n"
        "        raise AttributeError(name)\n"
        "    from repro.libm.compact import decode\n\n"
        "    data = globals()[\"DATA\"] = decode(COMPACT)\n"
        "    return data\n"
    )
    _verify_compact(source, comp, data)
    return source
