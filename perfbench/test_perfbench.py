"""Tests of the benchmark itself (not part of the qflux test suite).

    python3 -m pytest perfbench -q

The count test runs every workload three times (about two minutes on two
cores).
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

COUNT_SUFFIXES = (".calls", ".bytes", ".u_bytes", ".flops", ".yield")


def test_benchmark_json_names_what_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        tracing.per_layer_metrics()


def test_self_time_subtracts_children():
    layers = list(tracing.LAYERS)
    runner, q, cf = (layers.index(name) for name in
                     ("scenarios.runner", "dynamics.q", "closedform"))
    doc = {"layers": layers, "suites": ["global-ft"],
           "spans": [[runner, 0.0, 10.0, -1, 0, 0],
                     [q, 1.0, 4.0, 0, 0, 100],
                     [q, 5.0, 6.0, 0, 0, 50],
                     [cf, 7.0, 7.5, 0, 0, 0]]}
    metrics = tracing.summarize(doc, {"global-ft": 8}, 10, traced_wall=10.0,
                                untraced_wall=9.0)
    assert metrics["scenarios.runner.self_s"] == pytest.approx(5.5)
    assert metrics["dynamics.q.self_s"] == pytest.approx(4.0)
    assert metrics["dynamics.q.calls"] == 2
    assert metrics["dynamics.q.flops"] == 150
    assert metrics["closedform.self_s"] == pytest.approx(0.5)
    assert metrics["scenarios.suite.global-ft_s"] == pytest.approx(10.0)
    assert metrics["scenarios.ft.yield"] == pytest.approx(0.8)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["trace.covered_share"] == pytest.approx(1.0)


def test_tracer_counts_outer_calls_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from qflux import cli, closedform, dynamics, scenarios

    originals = (dynamics.q_quantity, cli.run_scenario, closedform.crooks_rhs_pm,
                 scenarios.VerificationReport.write)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_scenario is scenarios.run_scenario is not originals[1]
        closedform.crooks_rhs_pm(0.5, closedform.ScenarioParams(1.0, 1.0, 1.5), +1)
    finally:
        tracer.uninstall()
    assert (dynamics.q_quantity, cli.run_scenario, closedform.crooks_rhs_pm,
            scenarios.VerificationReport.write) == originals
    # crooks_rhs_pm calls other closed forms; only the outer call is a span
    assert [span[0] for span in tracer.spans] == [tracing.LAYERS.index("closedform")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_and_tracing_keeps_report_bytes(workload, tmp_path):
    counts, digests = [], []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        rep = run.run_worker(workload, 2024, tmp_path / f"traced{i}", spans=spans)
        assert rep["failed"] == 0, rep["problems"]
        metrics = tracing.summarize(json.loads(spans.read_text()), rep["cases"],
                                    rep["ft_attempts"], rep["wall_s"], rep["wall_s"])
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
        digests.append(rep["digests"])
    digests.append(run.run_worker(workload, 2024, tmp_path / "untraced")["digests"])
    assert counts[0] == counts[1]
    assert digests[0] == digests[1] == digests[2]


def test_compare_prints_one_row_per_workload_and_metric():
    def record(workload, trace, value):
        names = (run.END_TO_END if not trace else
                 [(f"{layer}.self_s", "s") for layer in tracing.LAYERS])
        return {"workload": workload, "trace": trace,
                "metrics": {name: {"value": value, "unit": unit} for name, unit in names}}

    base = [record("verify", 0, 2.0), record("verify", 0, 4.0), record("verify", 1, 1.0)]
    change = [record("verify", 0, 1.0), record("figures", 0, 1.0), record("verify", 1, 0.5)]
    lines = compare.report(base, change)
    wall = [line for line in lines if " wall_s " in line]
    assert len(wall) == 1 and wall[0].startswith("verify") and "-66.7%" in wall[0]
    assert any(line.startswith("verify") and "dynamics.q" in line and "-0.5000" in line
               for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
