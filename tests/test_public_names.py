"""Every exported name and every benchmark-traced function resolves."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import chernforms

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(chernforms.__path__) if info.name != "__main__"
)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["", *MODULES])
def test_all_names_exist(name):
    module = importlib.import_module(f"chernforms.{name}" if name else "chernforms")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_traced_spans_resolve():
    """perfbench/tracing.py wraps (owner, attribute) pairs by name."""
    spec = importlib.util.spec_from_file_location("_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    missing = [
        name for name, (owner, attr) in tracing.SPANS.items() if not hasattr(owner, attr)
    ]
    assert not missing, f"traced spans with no function behind them: {missing}"
