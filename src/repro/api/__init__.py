"""The public *serving-time* entry point of the reproduction.

Everything a user of the generated libraries needs is reachable from
this one package::

    from repro import api

    exp = api.load("exp", target="float32")
    exp.evaluate(1.5)                     # scalar, correctly rounded
    exp.evaluate_batch(xs)                # numpy float64 array in/out
    api.functions("posit32")              # what is available
    api.targets()                         # known target formats

:func:`load` returns a :class:`Library` handle wrapping the runnable
:class:`~repro.core.generator.GeneratedFunction`.  The batch methods
run the numpy-vectorized engine (:mod:`repro.batch`), which is
bit-identical to the scalar path for every input — see DESIGN.md,
"Scalar/batch bit-identity".

For heavy traffic the same surface is served out-of-process:
:func:`serve` starts the multi-process libm service
(:mod:`repro.serve`) and :func:`connect` returns a
:class:`ServiceClient` whose ``evaluate_batch`` / ``evaluate_bits_batch``
match :class:`Library`'s signatures exactly, so callers swap
local↔remote without code changes.

The *generation-time* half of the codebase — running the RLIBM-32
pipeline and freezing new coefficient tables — lives behind
:mod:`repro.api.generate`; nothing in this module ever touches the
oracle or the LP solver.

The ``repro.libm.float32`` / ``posit32`` module wrappers keep working,
and :func:`repro.libm.runtime.load_function` stays as the low-level
loader :func:`load` wraps.
"""

from __future__ import annotations

from repro.core.generator import GeneratedFunction
from repro.libm import runtime

__all__ = ["Library", "ServiceClient", "available", "connect", "functions",
           "load", "reload", "serve", "targets"]


class Library:
    """Handle for one correctly rounded function on one target format.

    Thin wrapper over a :class:`~repro.core.generator.GeneratedFunction`
    (exposed as :attr:`fn` for low-level access) presenting the scalar
    and batch evaluators under one roof.
    """

    def __init__(self, fn: GeneratedFunction, target: str):
        self.fn = fn
        self.name = fn.name
        self.target = target

    # -- scalar ------------------------------------------------------------

    def evaluate(self, x: float) -> float:
        """f(x) correctly rounded to the target, as a double."""
        return self.fn.evaluate(x)

    def evaluate_bits(self, x: float) -> int:
        """f(x) correctly rounded, as a target bit pattern."""
        return self.fn.evaluate_bits(x)

    __call__ = evaluate

    # -- batch -------------------------------------------------------------

    def evaluate_batch(self, xs):
        """Vectorized :meth:`evaluate`: float64 array in, doubles out.

        Accepts any-shape float64 arrays (or nested lists of floats);
        the result has the same shape.  Bit-identical to calling
        :meth:`evaluate` per element.
        """
        return self.fn.evaluate_many(xs)

    def evaluate_bits_batch(self, xs):
        """Vectorized :meth:`evaluate_bits`: uint64 patterns out."""
        return self.fn.evaluate_bits_many(xs)

    # -- introspection -----------------------------------------------------

    def instrumented(self, prefix: str | None = None) -> "Library":
        """A fresh handle whose *scalar* path records runtime metrics.

        Wraps :func:`repro.libm.runtime.instrument`; the batch path is
        not instrumented (it reports no per-call metrics) and the
        shared cached function stays untouched.  ``prefix`` overrides
        the metric-name prefix (default ``libm.<name>``).
        """
        return Library(runtime.instrument(self.fn, prefix=prefix),
                       self.target)

    @property
    def stats(self):
        """Generation-time statistics of the underlying function."""
        return self.fn.stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Library({self.name!r}, target={self.target!r})"


def load(function: str, target: str = "float32") -> Library:
    """Load one shipped (or generated) function as a :class:`Library`.

    ``function`` is an elementary function name (see :func:`functions`);
    ``target`` one of :func:`targets`.  Raises LookupError when no
    frozen data exists for the pair — ``python -m repro generate
    --target <name>`` creates it.
    """
    return Library(runtime.load_function(function, target), target)


def reload(function: str, target: str = "float32") -> Library:
    """Like :func:`load`, but bypassing caches (fresh frozen data)."""
    return Library(runtime.reload_function(function, target), target)


def functions(target: str = "float32") -> tuple[str, ...]:
    """Function names this target supports (posits lack sinpi/cospi)."""
    return runtime.functions_for(target)


def available(target: str = "float32") -> list[str]:
    """Function names with frozen data actually shipped for ``target``."""
    return runtime.available(target)


def targets() -> tuple[str, ...]:
    """Target formats the loader accepts (shipped: float32, posit32)."""
    return runtime.KNOWN_TARGETS


# -- the serving layer (imported lazily: repro.serve pulls in asyncio,
#    multiprocessing.shared_memory and the worker-pool machinery, none of
#    which an in-process `api.load` user should pay for) ------------------


def serve(*args, **kwargs):
    """Start the multi-process libm service; see :func:`repro.serve.serve`.

    Returns a :class:`repro.serve.ServiceHandle` whose ``address`` a
    :func:`connect` call (in this process or any other) can dial.
    """
    from repro.serve import serve as _serve

    return _serve(*args, **kwargs)


def connect(function: str, target: str = "float32", *, address=None,
            **kwargs) -> "ServiceClient":
    """Dial a running libm service; see :func:`repro.serve.connect`.

    The returned :class:`ServiceClient` mirrors :class:`Library`'s
    ``evaluate`` / ``evaluate_batch`` / ``evaluate_bits_batch``.
    """
    from repro.serve import connect as _connect

    return _connect(function, target, address=address, **kwargs)


def __getattr__(name: str):
    if name == "ServiceClient":
        from repro.serve.client import ServiceClient

        return ServiceClient
    if name == "generate":
        import importlib

        return importlib.import_module("repro.api.generate")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
