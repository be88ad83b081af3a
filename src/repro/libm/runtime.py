"""Loading the shipped correctly rounded library from frozen data.

``load_function("exp", "float32")`` rebuilds the runnable
:class:`~repro.core.generator.GeneratedFunction` from the coefficient
data module the generator tools froze into ``data_float32`` /
``data_posit32``.  Loading touches neither the oracle nor the LP solver —
the runtime path is: special cases, range reduction, shift+mask
sub-domain lookup, Horner, output compensation, final rounding.
"""

from __future__ import annotations

import importlib
import sys

from repro.core.generator import GeneratedFunction
from repro.libm.compact import decode
from repro.libm.serialize import function_from_dict
from repro.obs import metrics

__all__ = ["load_function", "reload_function", "available", "clear_cache",
           "instrument", "FLOAT32_FUNCTIONS", "POSIT32_FUNCTIONS"]

#: The ten float32 functions of the paper's prototype.
FLOAT32_FUNCTIONS = ("ln", "log2", "log10", "exp", "exp2", "exp10",
                     "sinh", "cosh", "sinpi", "cospi")
#: The eight posit32 functions.
POSIT32_FUNCTIONS = ("ln", "log2", "log10", "exp", "exp2", "exp10",
                     "sinh", "cosh")

#: Targets the loader accepts.  float32/posit32 ship with the repository;
#: the others can be generated in seconds-to-minutes with
#: ``python -m repro generate --target <name>`` (and are validated
#: exhaustively at generation time for the 16-bit formats).
KNOWN_TARGETS = ("float32", "posit32", "bfloat16", "float16", "posit16")
_cache: dict[tuple[str, str], GeneratedFunction] = {}


def functions_for(target: str) -> tuple[str, ...]:
    """The function set of a target (posits lack sinpi/cospi)."""
    return POSIT32_FUNCTIONS if target.startswith("posit") \
        else FLOAT32_FUNCTIONS


def _module_name(target: str, fn_name: str) -> str:
    return f"repro.libm.data_{target}.{fn_name}"


def clear_cache() -> None:
    """Drop every cached GeneratedFunction.

    The next :func:`load_function` re-reads the frozen data modules —
    needed after regenerating tables in-place (``python -m repro
    generate``) or when tests monkeypatch a data module.  Note that
    re-reading also requires the *module* to be fresh;
    :func:`reload_function` bundles the ``sys.modules`` purge with the cache drop for one
    function.
    """
    _cache.clear()


def reload_function(fn_name: str, target: str = "float32") \
        -> GeneratedFunction:
    """Reload one function from its frozen data module, bypassing caches.

    Purges the data module from ``sys.modules`` and drops the cached
    GeneratedFunction, then loads fresh — the dance the
    :func:`clear_cache` docstring used to tell callers to do by hand.
    Use after regenerating a single table in-place, or in tests that
    monkeypatch a data module.  Most callers want the
    :func:`repro.api.reload` facade, which wraps the result in a
    :class:`~repro.api.Library` handle.
    """
    sys.modules.pop(_module_name(target, fn_name), None)
    _cache.pop((fn_name, target), None)
    return load_function(fn_name, target)


def _import_data(target: str, fn_name: str):
    """The frozen data module, None when it is genuinely not shipped.

    Distinguishes "module missing" (→ None: the table was simply never
    generated) from "module broken" (an ImportError raised *inside* an
    existing data module — corrupt freeze, renamed dependency), which
    propagates: treating a broken table as not-shipped would silently
    shrink the library.
    """
    name = _module_name(target, fn_name)
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as e:
        # e.name is the *innermost* missing module: the data module
        # itself, or — for a never-generated target — its package.
        if e.name and (e.name == name or name.startswith(e.name + ".")):
            return None
        raise


def available(target: str = "float32") -> list[str]:
    """Function names with frozen data for this target.

    A data module that exists but fails to import raises (see
    :func:`_import_data`) rather than being reported as unavailable.
    """
    return [name for name in functions_for(target)
            if _import_data(target, name) is not None]


def load_function(fn_name: str, target: str = "float32",
                  instrumented: bool = False) -> GeneratedFunction:
    """The shipped correctly rounded implementation of ``fn_name``.

    This is the low-level loader; most callers want the
    :func:`repro.api.load` facade, which wraps the result in a
    :class:`~repro.api.Library` handle.

    With ``instrumented=True`` the returned (uncached, fresh) object's
    ``evaluate`` is wrapped by :func:`instrument`; the default path
    stays completely untouched — the hot loop pays zero observability
    cost unless a caller opts in.
    """
    key = (fn_name, target)
    fn = _cache.get(key)
    if fn is None:
        if target not in KNOWN_TARGETS:
            raise ValueError(f"unknown target {target!r}; "
                             f"expected one of {sorted(KNOWN_TARGETS)}")
        mod = _import_data(target, fn_name)
        if mod is None:
            raise LookupError(
                f"no frozen data for {fn_name}/{target}; generate it with "
                f"'python -m repro generate --target {target}'")
        fn = function_from_dict(decode(mod.COMPACT))
        _cache[key] = fn
    if instrumented:
        return instrument(fn)
    return fn


def instrument(fn: GeneratedFunction,
               prefix: str | None = None) -> GeneratedFunction:
    """A fresh copy of ``fn`` whose ``evaluate`` records runtime metrics.

    Opt-in profiling for the libm hot path: counts calls and
    special-case-layer hits, and histograms the sub-domain index each
    polynomial-path call lands in (``kind="exact"`` — one bucket per
    sub-domain, the per-sub-domain evaluation counts RLIBM-PROG tracks).
    The wrapper re-runs range reduction to learn the sub-domain, so an
    instrumented function is roughly 2x slower — never use it on the
    default path; the shared/cached object is left untouched.
    """
    g = GeneratedFunction(fn.spec, fn.approx, fn.stats)
    name = prefix or f"libm.{g.name}"
    c_calls = metrics.counter(f"{name}.calls")
    c_special = metrics.counter(f"{name}.special")
    hists = {
        fn_name: metrics.histogram(f"{name}.{fn_name}.subdomain",
                                   kind="exact")
        for fn_name in g.spec.rr.fn_names
    }
    inner = g.evaluate
    rr = g.spec.rr
    approx = g.approx

    def evaluate(x: float) -> float:
        c_calls.inc()
        if rr.special(x) is not None:
            c_special.inc()
        else:
            r = rr.reduce(x).r
            for fn_name, h in hists.items():
                af = approx[fn_name]
                side = af.neg if r < 0.0 else af.pos
                if side is not None:
                    h.observe(side.index_of(r))
        return inner(x)

    evaluate.__doc__ = inner.__doc__
    g.evaluate = evaluate
    return g
