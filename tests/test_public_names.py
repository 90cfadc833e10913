"""Every exported name resolves and is used; every benchmark-traced function resolves."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from functools import cache
from pathlib import Path

import pytest

import chernforms

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(chernforms.__path__) if info.name != "__main__"
)
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCES = sorted(
    [*(ROOT / "src" / "chernforms").glob("*.py"), *(ROOT / "tests").glob("*.py"),
     *(ROOT / "perfbench").glob("*.py")]
)


@cache
def _referenced_names() -> frozenset[str]:
    """Names loaded as variables or read as attributes anywhere in the sources.

    Definitions, import lines and the strings of ``__all__`` are not
    references, so a name counts only where some code uses it.
    """
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return frozenset(names)


@pytest.mark.parametrize("name", ["", *MODULES])
def test_all_names_exist(name):
    module = importlib.import_module(f"chernforms.{name}" if name else "chernforms")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", ["", *MODULES])
def test_all_names_are_used(name):
    """An exported name that no code, test or benchmark reads is dead API."""
    module = importlib.import_module(f"chernforms.{name}" if name else "chernforms")
    used = _referenced_names()
    unused = [attr for attr in getattr(module, "__all__", ()) if attr not in used]
    assert not unused, f"{module.__name__}.__all__ names used nowhere: {unused}"


def test_version_matches_pyproject():
    declared = re.search(r'^version = "([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared and declared.group(1) == chernforms.__version__


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return tracing


def test_traced_spans_resolve():
    """perfbench/tracing.py wraps (owner, attribute) pairs by name."""
    tracing = _load_tracing()
    missing = [
        name for name, (owner, attr) in tracing.SPANS.items() if not hasattr(owner, attr)
    ]
    assert not missing, f"traced spans with no function behind them: {missing}"


def test_traced_counters_resolve():
    """Besides SPANS, traced() rebinds quillen.gauss_legendre (the eta_rounds
    counter) and jets.Jet.__mul__ / __rmul__ by name."""
    tracing = _load_tracing()
    for owner, attr in (
        (tracing.quillen, "gauss_legendre"),
        (tracing.jets.Jet, "__mul__"),
        (tracing.jets.Jet, "__rmul__"),
    ):
        assert hasattr(owner, attr), f"traced counter {owner.__name__}.{attr} is gone"
