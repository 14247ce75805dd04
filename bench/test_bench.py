"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: the shortest walk every workload accepts (the spectrum step needs 8 samples)
TINY_STEPS = 8


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny-T run per workload and trace setting."""
    out = tmp_path_factory.mktemp("bench")
    return {
        (w, trace): (run.run(w, 5, 0.0, trace, out, steps=TINY_STEPS), out / w / f"seed-5-trace-{int(trace)}")
        for w in workloads.WORKLOAD_STEPS
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_STEPS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOAD_STEPS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_completes_with_every_metric(smoke, workload, trace):
    result, _ = smoke[workload, trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


@pytest.mark.parametrize(
    "workload, name, corrupt",
    [
        ("correlations", "qd.csv", lambda text: text.replace("\n1,", "\n1,-5", 1)),
        ("correlations", "mi.csv", lambda text: text[: len(text) // 2]),
        ("backflow", "choi.csv", lambda text: text.replace("true", "false", 1)),
        ("backflow", "spectrum/fit.csv", lambda text: text.replace("\n3,", "\n3,9", 1)),
        ("stepwise", "distribution.csv", lambda text: text.replace("\n0,0,", "\n0,0,0.5", 1)),
        ("stepwise", "entropy.csv", lambda text: text.replace("\n2,", "\n2,1.5", 1)),
    ],
)
def test_corrupted_output_raises_failed_fraction(smoke, workload, name, corrupt):
    result, run_dir = smoke[workload, False]
    report = json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))
    cfg = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    path = run_dir / "first" / name
    original = path.read_text(encoding="utf-8")
    try:
        path.write_text(corrupt(original), encoding="utf-8")
        attempted, failures = run.evaluate(workload, cfg, run_dir, 5, report)
    finally:
        path.write_text(original, encoding="utf-8")
    assert attempted == result["attempted"]
    assert failures, f"corrupting {name} went unnoticed"


def test_configs_are_seeded():
    for w in workloads.WORKLOAD_STEPS:
        assert workloads.make_config(w, 3) == workloads.make_config(w, 3)
        assert workloads.make_config(w, 3) != workloads.make_config(w, 4)
    models = {workloads.make_config("stepwise", s)["noise"]["model"] for s in range(40)}
    assert models == {"oun", "pln"}


def test_oracle_kernel_matches_program():
    from nmqwalk.cli import parse_config
    from nmqwalk.noise import kernel_value

    t = [0.0, 1.0, 7.5, 40.0]
    for w in workloads.WORKLOAD_STEPS:
        for seed in range(6):
            cfg = workloads.make_config(w, seed)
            noise = parse_config(json.dumps(cfg)).noise
            assert checks.close(checks.kernel(cfg["noise"], t), kernel_value(noise, t), 1e-14)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["witness.mi", 1.0, 5.0, 0],
        ["linalg.eig", 2.0, 3.0, 1],
        ["linalg.eig", 6.0, 8.0, 0],
    ]
    calls, inclusive, self_time = tracer.totals()
    assert calls["linalg.eig"] == 2 and inclusive["linalg.eig"] == 3.0
    assert self_time == {"cli.main": 4.0, "witness.mi": 3.0, "linalg.eig": 3.0}


def test_instrumentation_restores_and_skips_missing_names(monkeypatch):
    import nmqwalk.witness as witness

    original = witness.partial_trace
    monkeypatch.delattr(witness, "trace_norm")
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert witness.partial_trace is not original
        assert not hasattr(witness, "trace_norm")
    assert witness.partial_trace is original
    assert witness.np is tracing.numpy
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["qops.trace_norm_s"] == 0.0 and metrics["qops.partial_trace_calls"] == 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "correlations", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
