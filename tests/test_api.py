"""The ``repro.api`` facade and the entry-point consistency contract.

The facade is the one import user code needs (README "Public API"):
``api.load`` returns a :class:`repro.api.Library` exposing the scalar
and batch evaluators, ``api.functions``/``api.targets`` enumerate what
is shipped, ``Library.instrumented()`` opts into runtime metrics.  The
low-level loader ``runtime.load_function`` stays warning-free.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import api
from repro.core.generator import GeneratedFunction
from repro.libm import runtime
from repro.obs import metrics


class TestFacade:
    def test_load_returns_library(self):
        lib = api.load("exp", target="float32")
        assert isinstance(lib, api.Library)
        assert lib.name == "exp" and lib.target == "float32"
        assert isinstance(lib.fn, GeneratedFunction)

    def test_scalar_and_call(self):
        lib = api.load("exp", target="float32")
        assert lib.evaluate(0.0) == 1.0
        assert lib(0.0) == 1.0                     # __call__ alias
        assert lib.evaluate_bits(0.0) == lib.fn.evaluate_bits(0.0)

    def test_batch_matches_scalar(self):
        lib = api.load("log2", target="float32")
        xs = np.array([0.5, 1.0, 2.0, 10.0])
        vals = lib.evaluate_batch(xs)
        bits = lib.evaluate_bits_batch(xs)
        for x, v, b in zip(xs.tolist(), vals.tolist(), bits.tolist()):
            assert v == lib.evaluate(x)
            assert b == lib.evaluate_bits(x)

    def test_batch_accepts_lists(self):
        lib = api.load("exp", target="float32")
        assert lib.evaluate_batch([0.0, 1.0])[0] == 1.0

    def test_functions_and_targets(self):
        assert api.functions("float32") == runtime.FLOAT32_FUNCTIONS
        assert api.functions("posit32") == runtime.POSIT32_FUNCTIONS
        assert "sinpi" not in api.functions("posit32")
        assert {"float32", "posit32"} <= set(api.targets())

    def test_unknown_function_raises(self):
        with pytest.raises(LookupError):
            api.load("tanh", target="float32")
        with pytest.raises(ValueError):
            api.load("exp", target="float128")

    def test_instrumented(self):
        lib = api.load("exp", target="float32").instrumented()
        assert isinstance(lib, api.Library)
        before = metrics.counter("libm.exp.calls").value
        lib.evaluate(1.0)
        assert metrics.counter("libm.exp.calls").value == before + 1
        # the shared cached function is untouched
        assert api.load("exp", target="float32").fn is not lib.fn

    def test_stats_exposed(self):
        lib = api.load("exp", target="float32")
        assert lib.stats is lib.fn.stats


class TestDeprecatedEntryPoints:
    def test_load_function_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runtime.load_function("exp", "float32")


class TestReload:
    def test_reload_picks_up_fresh_data(self, monkeypatch):
        fn = runtime.load_function("exp", "float32")
        # a stale cache entry keeps returning the same object ...
        assert runtime.load_function("exp", "float32") is fn
        # ... until reload purges both module and function caches
        fresh = runtime.reload_function("exp", "float32")
        assert fresh is not fn
        assert fresh.evaluate_bits(1.0) == fn.evaluate_bits(1.0)
        assert runtime.load_function("exp", "float32") is fresh

    def test_api_reload(self):
        a = api.load("exp", target="float32")
        b = api.reload("exp", target="float32")
        assert b.fn is not a.fn
        assert b.evaluate_bits(2.5) == a.evaluate_bits(2.5)
