"""The benchmark traces layers by wrapping module-level names that facetkit
resolves at call time; a renamed or deleted name would make its metrics read 0
instead of failing.  This guard fails instead.  The benchmark also checks
every answer it times; the two search workloads that finish in about a second
run those checks here, so a wrong answer fails the suite before the
benchmark."""

import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["cp29", "budget105"])
def test_benchmark_answer_checks_pass(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    fk, inputs, _, _ = run.setup(workload, seed=0)
    result = run.run_pass(run.make_ops(workload, fk, inputs))
    assert result["ops"]
    assert [row for row in result["ops"] if not row["ok"]] == []
