"""The benchmark traces layers by wrapping module-level names that facetkit
resolves at call time; a renamed or deleted name would make its metrics read 0
instead of failing.  This guard fails instead."""

import importlib
from pathlib import Path

import facetkit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    targets = run.trace_targets(facetkit, spans.Tracer())
    assert targets
    for owner, name, _ in targets:
        assert hasattr(owner, name), f"{owner.__name__}.{name} is traced but missing"
