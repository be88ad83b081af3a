"""Shape of the ``repro.api`` package after the serving/generation split.

The facade became a package in the serving-layer redesign: the
serving-time surface (``load``/``reload``/``functions``/``targets``/
``available``/``Library`` plus the lazy service entry points ``serve``/
``connect``/``ServiceClient``) lives in ``repro.api`` itself, the
generation-time surface in ``repro.api.generate``.  These tests freeze
that shape: every re-export resolves, the lazy attributes stay lazy
(an ``api.load`` user never pays for asyncio/shared-memory imports or
the oracle), and the facade loads without warnings.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import api

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPackageShape:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_serving_surface(self):
        assert {"Library", "load", "reload", "functions", "available",
                "targets", "serve", "connect",
                "ServiceClient"} <= set(api.__all__)
        assert callable(api.serve) and callable(api.connect)

    def test_service_client_is_the_serve_one(self):
        from repro.serve.client import ServiceClient

        assert api.ServiceClient is ServiceClient

    def test_generate_submodule(self):
        from repro.api.generate import generate_library

        assert api.generate.generate_library is generate_library

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.does_not_exist

    def test_import_api_does_not_import_serving_or_generation(self):
        """The lazy split is the point: ``import repro.api`` must not
        drag in the service stack or the generation pipeline."""
        code = (
            "import sys, repro.api\n"
            "bad = [m for m in sys.modules\n"
            "       if m.startswith(('repro.serve', 'repro.api.generate',\n"
            "                        'repro.core.lpsolver', 'asyncio'))]\n"
            "assert not bad, bad\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("work", [
        "import numpy as np\n"
        "from repro import api\n"
        "api.load('exp', 'posit32').evaluate_bits_batch(\n"
        "    np.array([0.5, 1.0, 2.0]))\n",
        "import repro.serve\n",
    ], ids=["load_and_evaluate", "import_serve"])
    def test_runtime_paths_do_not_import_scipy(self, work):
        """Loading and evaluating frozen tables never needs the LP
        solver, so the runtime must not pay SciPy's import."""
        code = work + "import sys\nassert 'scipy' not in sys.modules\n"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestLegacyEntryPoints:
    def test_facade_load_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api.load("exp", target="float32")
