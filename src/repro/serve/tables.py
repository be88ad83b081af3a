"""Frozen coefficient tables in a shared-memory arena.

The serving layer loads each function's frozen data module **once**, in
the parent process, and publishes the evaluation-relevant tables into a
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Worker
processes :func:`attach` the segment and rebuild runnable
:class:`~repro.batch.engine.BatchFunction` pipelines whose
gathered-Horner kernels read the coefficient columns *in place* —
zero-copy, read-only views straight into the arena.  A worker never
imports ``repro.libm.data_*``.

Arena layout (format version 3)::

    [0:8)    magic  b"RLSARENA"
    [8:12)   format version (uint32 LE)
    [12:20)  manifest length M (uint64 LE)
    [20:20+M) pickled manifest (built by this module, never from the wire)
    [...]    8-byte-aligned float64 coefficient arena

The float64 arena is **content-addressed**: every block (lowered
coefficient columns, range-reduction tables) is deduplicated by its
bytes at publish time — through the compact codec's pool builder, the
one the frozen data modules are written with — so e.g. ``sinh`` and
``cosh``, which share their compensation tables, store them once,
across modules.  The manifest maps ``"fn:target"`` keys to everything a
worker needs *except* the doubles:

* the range reduction's kind + frozen state, with every float-vector
  table lifted out of the pickled state into the arena
  (``rr_vecs``: attr → (offset in doubles, length)), which keeps the
  pickled manifest small; the attach rebuilds the tuples from the
  arena;
* per elementary function one :class:`~repro.batch.kernels.Lowered`
  descriptor: its fields, with ``cols`` replaced by
  ``(offset, nterms, nuniq)`` into the arena and ``index`` stored as
  little-endian u32 bytes.  The attach rebuilds the ``Lowered`` around
  a read-only arena view and calls
  :func:`~repro.batch.kernels.build_kernel` — the same builder the
  in-process batch engine uses.

Trust boundary (see DESIGN.md): the arena is *versioned against table
content* — the manifest records a SHA-256 over the descriptors and the
coefficient bytes, and :func:`attach` recomputes and checks it, so a
worker can never silently evaluate against a stale or torn arena.  The
attached views are marked non-writeable; nothing after
:func:`publish` ever mutates the segment.
"""

from __future__ import annotations

import hashlib
import pickle
import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

from repro.batch.engine import BatchFunction
from repro.batch.kernels import Lowered, build_kernel, lower
from repro.batch.rounding import decode_kernel
from repro.libm.compact import _PoolBuilder

__all__ = ["ARENA_VERSION", "ArenaError", "AttachedArena", "PublishedArena",
           "arena_key", "attach", "build_manifest", "publish"]

ARENA_VERSION = 3
_MAGIC = b"RLSARENA"
_HEAD = len(_MAGIC) + 4 + 8  # magic + version + manifest length

#: float-vector rr attributes shorter than this stay pickled in the
#: manifest; longer ones move into the content-addressed arena
_VEC_MIN = 16

#: mappings that could not unmap at close() because exported views were
#: still alive; kept referenced so the finalizer never re-raises
_PINNED_MAPPINGS: list = []


class ArenaError(RuntimeError):
    """The arena is missing, corrupt, or does not match its hash."""


def arena_key(function: str, target: str) -> str:
    """The manifest key of one (function, target) pair."""
    return f"{function}:{target}"


def _align8(n: int) -> int:
    return (n + 7) & ~7


def build_manifest(pairs: Sequence[tuple[str, str]]):
    """Load each (function, target) pair and freeze its serving tables.

    Returns ``(manifest, arena_bytes)``.  This is the only place the
    serving layer touches :mod:`repro.libm.runtime` — it runs once, in
    the publishing process.
    """
    from repro.libm.runtime import load_function
    from repro.libm.serialize import _RR_KIND, _rr_state

    pool = _PoolBuilder()
    entries: dict[str, Any] = {}
    for function, target in pairs:
        fn = load_function(function, target)
        rr = fn.spec.rr
        fns = []
        for name in rr.fn_names:
            lw = lower(fn.approx[name])
            fns.append(lw._replace(
                cols=(pool.add_array(lw.cols),) + lw.cols.shape,
                index=None if lw.index is None
                else lw.index.astype("<u4").tobytes())._asdict())
        state = _rr_state(rr)
        rr_vecs: dict[str, tuple[int, int]] = {}
        for attr in sorted(state):
            v = state[attr]
            if isinstance(v, tuple) and len(v) >= _VEC_MIN \
                    and all(type(x) is float for x in v):
                rr_vecs[attr] = (pool.add_vector(v), len(v))
                del state[attr]
        entries[arena_key(function, target)] = {
            "function": function, "target": target,
            "rr_kind": _RR_KIND[type(rr)], "rr_state": state,
            "rr_vecs": rr_vecs, "fns": fns,
        }
    arena = pool.raw()
    manifest = {"version": ARENA_VERSION, "entries": entries,
                "arena_nbytes": len(arena)}
    manifest["content_hash"] = _content_hash(manifest, arena)
    return manifest, arena


def _content_hash(manifest: dict, arena: bytes) -> str:
    """SHA-256 binding the descriptors to the coefficient bytes."""
    h = hashlib.sha256()
    h.update(repr(sorted(
        (k, repr(v)) for k, v in manifest["entries"].items())).encode())
    h.update(arena)
    return h.hexdigest()


class PublishedArena:
    """An owned shared-memory arena; the publisher must :meth:`close` it."""

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict):
        self.shm = shm
        self.name = shm.name
        self.manifest = manifest
        self.content_hash = manifest["content_hash"]

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""
        if self.shm is None:
            return
        shm, self.shm = self.shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "PublishedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def publish(pairs: Sequence[tuple[str, str]],
            name: str | None = None) -> PublishedArena:
    """Freeze the pairs' tables into a new shared-memory arena."""
    manifest, arena = build_manifest(pairs)
    blob = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
    arena_at = _align8(_HEAD + len(blob))
    total = max(1, arena_at + len(arena))
    shm = shared_memory.SharedMemory(
        name=name or f"rlserve-{secrets.token_hex(6)}",
        create=True, size=total)
    buf = shm.buf
    buf[:len(_MAGIC)] = _MAGIC
    buf[len(_MAGIC):len(_MAGIC) + 4] = ARENA_VERSION.to_bytes(4, "little")
    buf[len(_MAGIC) + 4:_HEAD] = len(blob).to_bytes(8, "little")
    buf[_HEAD:_HEAD + len(blob)] = blob
    buf[arena_at:arena_at + len(arena)] = arena
    return PublishedArena(shm, manifest)


class AttachedArena:
    """A read-only view of a published arena in (usually) another process.

    :meth:`batch_function` rebuilds the full batch pipeline for one
    key — range reduction from its pickled state (float-vector tables
    rebuilt from the arena), Horner kernels over zero-copy views into
    the segment — and memoizes it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict,
                 arena: np.ndarray):
        self.shm = shm
        self.name = shm.name
        self.manifest = manifest
        self.content_hash = manifest["content_hash"]
        self._arena = arena
        self._funcs: dict[str, BatchFunction] = {}
        self._decoders: dict[str, Any] = {}

    def keys(self) -> list[str]:
        """The ``"fn:target"`` keys this arena serves."""
        return sorted(self.manifest["entries"])

    def _kernel(self, desc: dict):
        """The Horner kernel of one lowered descriptor, over arena views."""
        off, nterms, nuniq = desc["cols"]
        cols = self._arena[off:off + nterms * nuniq].reshape(nterms, nuniq)
        raw = desc["index"]
        index = None if raw is None else \
            np.frombuffer(raw, dtype="<u4").astype(np.intp)
        return build_kernel(Lowered(**dict(desc, cols=cols, index=index)))

    def batch_function(self, key: str) -> BatchFunction:
        """The memoized batch pipeline for ``"fn:target"``."""
        bf = self._funcs.get(key)
        if bf is not None:
            return bf
        from repro.libm.serialize import TARGETS_BY_NAME, _rr_from_state

        entry = self.manifest["entries"].get(key)
        if entry is None:
            raise ArenaError(f"arena {self.name} does not serve {key!r}")
        target = TARGETS_BY_NAME[entry["target"]]
        state = dict(entry["rr_state"])
        for attr, (off, n) in entry["rr_vecs"].items():
            state[attr] = tuple(self._arena[off:off + n].tolist())
        rr = _rr_from_state(entry["rr_kind"], state, target)
        kernels = [self._kernel(desc) for desc in entry["fns"]]
        bf = BatchFunction(rr, kernels, target)
        self._funcs[key] = bf
        return bf

    def decoder(self, key: str):
        """Bit-pattern → double decode kernel for the key's target."""
        dec = self._decoders.get(key)
        if dec is None:
            from repro.libm.serialize import TARGETS_BY_NAME

            entry = self.manifest["entries"].get(key)
            if entry is None:
                raise ArenaError(
                    f"arena {self.name} does not serve {key!r}")
            dec = decode_kernel(TARGETS_BY_NAME[entry["target"]])
            self._decoders[key] = dec
        return dec

    def close(self) -> None:
        """Drop the views and detach (idempotent)."""
        if self.shm is None:
            return
        self._funcs.clear()
        self._decoders.clear()
        self._arena = None
        shm, self.shm = self.shm, None
        try:
            shm.close()
        except BufferError:
            # a kernel built from this arena is still alive somewhere;
            # the mapping stays until those references die (or the
            # process exits) — never invalidate memory under a kernel.
            # Pinning the handle also keeps SharedMemory.__del__ from
            # re-raising the same BufferError as an unraisable warning.
            _PINNED_MAPPINGS.append(shm)


def attach(name: str, expect_hash: str | None = None, *,
           untrack: bool = False) -> AttachedArena:
    """Attach an existing arena read-only and verify its integrity.

    ``expect_hash`` pins the attach to a specific publication — a
    worker handed the publisher's content hash refuses anything else.

    ``untrack=True`` is for attachers that are *not* forked from the
    publisher (a separate interpreter inspecting a running service):
    such a process spawns its own resource-tracker daemon, which would
    unlink — destroy — the arena when the process exits (bpo-38119).
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError as e:
        raise ArenaError(f"no shared-memory arena named {name!r}") from e
    # The publisher owns the segment's lifetime.  Workers are forked,
    # so they share the publisher's resource-tracker daemon, where
    # registration is an idempotent set-add: this attach-time register
    # is a no-op and the publisher's unlink clears the single entry.
    # (Unregistering here instead would erase the *publisher's*
    # registration and make its unlink complain.)
    if untrack:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    try:
        buf = bytes(shm.buf[:_HEAD])
        if buf[:len(_MAGIC)] != _MAGIC:
            raise ArenaError(f"segment {name!r} is not a libm arena")
        version = int.from_bytes(buf[len(_MAGIC):len(_MAGIC) + 4], "little")
        if version != ARENA_VERSION:
            raise ArenaError(
                f"arena {name!r} has format version {version}, "
                f"this build reads {ARENA_VERSION}")
        blob_len = int.from_bytes(buf[len(_MAGIC) + 4:_HEAD], "little")
        manifest = pickle.loads(bytes(shm.buf[_HEAD:_HEAD + blob_len]))
        arena_at = _align8(_HEAD + blob_len)
        nbytes = manifest["arena_nbytes"]
        raw = bytes(shm.buf[arena_at:arena_at + nbytes])
        if _content_hash(manifest, raw) != manifest["content_hash"]:
            raise ArenaError(
                f"arena {name!r} fails its content hash (torn write or "
                "stale segment)")
        if expect_hash is not None and \
                manifest["content_hash"] != expect_hash:
            raise ArenaError(
                f"arena {name!r} holds content {manifest['content_hash']:.12s}…, "
                f"expected {expect_hash:.12s}…")
        arena = np.frombuffer(shm.buf, dtype=np.float64,
                              offset=arena_at, count=nbytes // 8)
        arena.flags.writeable = False
    except ArenaError:
        shm.close()
        raise
    except Exception as e:
        shm.close()
        raise ArenaError(f"arena {name!r} is corrupt: {e}") from e
    return AttachedArena(shm, manifest, arena)
