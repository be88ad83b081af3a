"""The generated correctly rounded math libraries and their tooling."""

from __future__ import annotations

from repro.libm.runtime import (FLOAT32_FUNCTIONS, POSIT32_FUNCTIONS,
                                available, load_function)

__all__ = ["FLOAT32_FUNCTIONS", "POSIT32_FUNCTIONS", "available",
           "load_function"]
