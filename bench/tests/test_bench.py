"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""
import argparse
import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

import logcoral.losses  # noqa: E402
import logcoral.network  # noqa: E402
import logcoral.stats  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def tiny(name, workdir):
    if name == "train_default":
        return workloads.TrainDefault(0, workdir, steps=30, acc_floor=0.0)
    if name == "feature_align":
        return workloads.FeatureAlign(0, workdir, rows=200, width=24, dead=2)
    return workloads.GradcheckSweep(0, workdir)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric_with_its_unit(name, trace, tmp_path, capsys):
    args = argparse.Namespace(workload=name, seed=0, seconds=0.2, trace=trace)
    run.execute(args, tiny(name, str(tmp_path)), 0.0, str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        for m in spec:
            assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                       for line in lines), m["name"]
    else:
        for m in spec:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_perturbed_logcoral_value_counts_as_a_failed_operation(tmp_path, monkeypatch):
    w = tiny("feature_align", str(tmp_path))
    w.setup()
    real = logcoral.losses.logcoral_loss

    def perturbed(*args, **kwargs):
        bundle = real(*args, **kwargs)
        return dataclasses.replace(bundle, value=bundle.value * (1 + 1e-3))

    monkeypatch.setattr(logcoral.losses, "logcoral_loss", perturbed)
    block = w.run_block(None, 0.0)
    assert block.attempted == 1 and block.failed == 1
    assert "logcoral loss" in block.failures[0]


def test_traced_step_time_is_within_10_percent_of_the_untraced_step_time(tmp_path):
    """A traced step's self times add up to its span's duration, so they
    account for the untraced step time as closely as tracing is cheap.
    Traced and untraced blocks alternate in one run, and times are scaled by
    the reference kernel, so the machine's speed changes mostly cancel."""
    w = tiny("train_default", str(tmp_path))
    w.setup()
    untraced, traced = run.measure(w, 3.0, Tracer())
    assert len(untraced) >= 3 and len(traced) >= 3
    assert abs(run.trace_overhead(untraced, traced)) < 0.10


def test_wrappers_bind_every_namespace_and_undo_restores_them():
    original = logcoral.stats.batch_covariance
    assert logcoral.network.batch_covariance is original
    tracer = Tracer().install()
    try:
        assert logcoral.stats.batch_covariance is not original
        assert logcoral.network.batch_covariance is logcoral.stats.batch_covariance
    finally:
        tracer.uninstall()
    assert logcoral.stats.batch_covariance is original
    assert logcoral.network.batch_covariance is original


def test_a_target_that_is_gone_is_listed_not_fatal():
    tracer = Tracer({**TARGETS, "stats": ["batch_covariance", "inlined_away"]}).install()
    tracer.uninstall()
    assert tracer.missing == ["stats.inlined_away"]
    assert tracer.summary()["stats.inlined_away"]["calls"] == 0


def test_spec_names_are_unique_and_within_the_contract():
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert [m["name"] for m in SPEC["end_to_end"]].count("setup_s") == 1
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
