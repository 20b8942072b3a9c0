"""The benchmark's tracer (``perfbench/spans.py``) wraps gradsketch entry
points looked up by name, so renaming or deleting one breaks only traced
benchmark runs, which the test suite does not start.  These tests read the
tracer's own list of entry points and check that each one still resolves."""

import importlib.util
from pathlib import Path

import pytest

from gradsketch.problems import HingeSVMProblem, LogisticProblem, QuadraticProblem

_SPEC = importlib.util.spec_from_file_location("perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in spans._ENTRY_POINTS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in spans._ENTRY_POINTS],
)
def test_each_traced_entry_point_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("cls", [QuadraticProblem, LogisticProblem, HingeSVMProblem], ids=lambda cls: cls.__name__)
def test_each_problem_has_the_traced_methods(cls):
    assert spans._PROBLEM_METHODS == ("gradient", "train_loss", "test_metric")
    for method in spans._PROBLEM_METHODS:
        assert callable(getattr(cls, method, None)), method
