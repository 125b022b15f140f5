"""The benchmark's tracer wraps package functions by name: each one must exist."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TARGETS  # noqa: E402


def test_tracing_targets_resolve():
    for module, attr, _span in TARGETS:
        mod = importlib.import_module(f"locweinstein.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
