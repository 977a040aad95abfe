"""The benchmark under ``bench/`` drives the package through its public
names: ``check`` and ``client`` import them, and ``spans.TRACED`` names the
functions the traced run wraps.  These tests fail when an API change removes
one of them."""

import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).parent.parent / "bench"
BENCH_MODULES = ("check", "client", "spans")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("module", ["check", "client"])
def test_bench_module_imports(bench, module):
    importlib.import_module(module)


def test_traced_names_resolve(bench):
    # looked up, not wrapped: the tracer is never installed here
    traced = importlib.import_module("spans").TRACED
    assert traced
    for name in traced:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"diamondqc.{module}"), attr)), name
