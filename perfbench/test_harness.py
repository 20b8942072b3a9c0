"""Tests for the benchmark harness itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
import spans
from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

# The two workloads cheap enough to run in a test; the third differs only in size.
FAST = ("blobs-sketched-784", "quad-localtopk-100k")


def _originals():
    return [vars(owner).get(attr) for owner, attr, _ in spans._ENTRY_POINTS]


@pytest.fixture(scope="module", params=FAST)
def traced_pair(request, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("csv"))
    before = _originals()
    first = child.measure(request.param, DEFAULT_SEED, True, out)
    after = _originals()
    second = child.measure(request.param, DEFAULT_SEED, True, out)
    return request.param, first, second, before, after


def test_wrappers_removed_after_traced_run(traced_pair):
    _, _, _, before, after = traced_pair
    assert all(a is b for a, b in zip(before, after))


def test_traced_and_untraced_runs_write_the_same_csv(traced_pair, tmp_path):
    workload, first, _, _, _ = traced_pair
    untraced = child.measure(workload, DEFAULT_SEED, False, str(tmp_path))
    assert first["digest"] == untraced["digest"] == EXPECTED[workload]


def test_layer_self_times_sum_to_at_most_round_wall(traced_pair):
    _, first, _, _, _ = traced_pair
    layers = first["layers"]
    total = sum(layers[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert 0 < total <= layers["trace.round_ms"] * (1 + 1e-9)
    assert all(layers[f"{layer}.self_ms"] >= 0 for layer in spans.LAYERS)


def test_deterministic_counts_repeat_exactly(traced_pair):
    _, first, second, _, _ = traced_pair
    counts = [
        key for key in first["layers"]
        if key.endswith(".calls") or key.startswith("cluster.bytes") or key == "cluster.exact_useful_frac"
    ]
    assert counts
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}


def test_layer_leading_the_round_matches_the_workload(traced_pair):
    workload, first, _, _, _ = traced_pair
    shares = {layer: first["layers"][f"{layer}.share"] for layer in spans.LAYERS}
    leader = {"blobs-sketched-784": "problems", "quad-localtopk-100k": "heavyhitters"}[workload]
    assert max(shares, key=shares.get) == leader


def _result(**overrides):
    base = {"digest": "a", "loss0": 1.0, "final_train_loss": 0.5}
    return {**base, **overrides}


def test_output_check_flags_wrong_digest_rising_loss_and_failed_runs():
    runs = [
        _result(),
        _result(digest="b"),
        _result(final_train_loss=2.0),
        _result(final_train_loss=float("nan")),
        None,
    ]
    reasons = run.failed_checks(runs, expected="a")
    assert reasons[0] is None
    assert all(reasons[1:])
    # Without an expected digest the runs must agree with each other.
    assert run.failed_checks([_result(), _result(), _result(digest="b")], None) == [None, None, reasons[1]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", FAST[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
