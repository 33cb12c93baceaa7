"""Tests of the benchmark itself: metric names, self-time arithmetic, the
tracing wrappers, and that every correctness check fails on a corrupted
result.  Fast; no workload is timed.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math
import re
import signal
import time
from pathlib import Path

import pytest

import env

env.prepare()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cavityphase import analysis, cli, hilbert, protocol  # noqa: E402

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_and_units_are_valid_and_unique():
    metrics = list(run.END_TO_END) + list(layers.PER_LAYER)
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    names = [name for name, _ in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_metrics_the_command_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_report_every_name_in_order():
    values = layers.per_layer_metrics(layers.Tracer(), 1, 1.0)
    assert list(values) == [name for name, _ in layers.PER_LAYER]


# ---------------------------------------------------------------------------
# reference-kernel units


def test_reference_units_divide_each_stretch_by_the_next_kernel_time():
    samples = [(0.2, 0.25), (1.0, 1.1), (2.0, 2.2)]
    # stretches 0.5..1.0, 1.1..2.0 and 2.2..3.0; the first sample is before
    assert hostspeed.in_reference_units(0.5, 3.0, samples) == pytest.approx(
        0.5 / 0.1 + 0.9 / 0.2 + 0.8 / 0.2
    )
    assert hostspeed.kernel_time(0.5, 3.0, samples) == pytest.approx(0.3)
    # no sample inside: the nearest earlier one stands in
    assert hostspeed.in_reference_units(3.0, 4.0, samples) == pytest.approx(1.0 / 0.2)
    assert hostspeed.in_reference_units(0.0, 0.1, samples) == pytest.approx(0.1 / 0.05)


def test_steady_host_reads_operation_time_over_kernel_time():
    kernel = 0.004
    samples = [(0.05 * i, 0.05 * i + kernel) for i in range(1, 100)]
    t0, t1 = 0.01, 3.0
    wall = t1 - t0 - hostspeed.kernel_time(t0, t1, samples)
    assert hostspeed.in_reference_units(t0, t1, samples) == pytest.approx(wall / kernel)
    # twice as slow throughout: twice the wall time, the same units
    slow = [(2 * s, 2 * e) for s, e in samples]
    assert hostspeed.in_reference_units(2 * t0, 2 * t1, slow) == pytest.approx(wall / kernel)


def test_sampler_samples_only_while_armed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.01, kernel=lambda: None)
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(sampler.samples)
    assert count >= 5  # one taken on entry, the rest from the timer
    assert signal.getsignal(signal.SIGALRM) == before
    time.sleep(0.05)
    assert len(sampler.samples) == count
    starts = [s for s, _ in sampler.samples]
    assert starts == sorted(starts)


def test_reference_kernels_run():
    hostspeed.reference_kernel()
    hostspeed.design_kernel()
    assert run.CliWorkload.kernel is hostspeed.reference_kernel
    assert run.DesignWorkload.kernel is hostspeed.design_kernel


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("analysis.run_experiment", 1.0, 9.0, 0, 0),
        ("integrator.propagate", 2.0, 7.0, 1, 0),
        ("analysis.h_eval", 2.5, 3.0, 2, 0),
        ("analysis.h_eval", 4.0, 5.5, 2, 0),
        ("hilbert.channel_fidelity", 7.5, 8.0, 1, 0),
    ]
    total, self_time, calls = layers.span_totals(spans)
    assert total["cli.main"] == 10.0
    assert self_time["cli.main"] == 2.0
    assert self_time["analysis.run_experiment"] == pytest.approx(8.0 - 5.0 - 0.5)
    assert self_time["integrator.propagate"] == pytest.approx(5.0 - 2.0)
    assert total["analysis.h_eval"] == pytest.approx(2.0)
    assert self_time["analysis.h_eval"] == pytest.approx(2.0)
    assert calls["analysis.h_eval"] == 2


def test_tracer_nests_spans_and_derives_per_op_metrics():
    tracer = layers.Tracer()
    inner = tracer.wrap("analysis.h_eval", lambda t: t)
    outer = tracer.wrap("integrator.propagate", lambda: [inner(t) for t in range(3)])
    for op in range(2):
        tracer.op = op
        with tracer.span("cli.main"):
            outer()
    spans = tracer.spans
    assert [s[0] for s in spans[:5]] == ["cli.main", "integrator.propagate"] + ["analysis.h_eval"] * 3
    assert [s[3] for s in spans[:5]] == [-1, 0, 1, 1, 1]
    assert {s[4] for s in spans[5:]} == {1}
    assert all(end >= start for _, start, end, _, _ in spans)
    values = layers.per_layer_metrics(tracer, 2, 1.0)
    assert values["analysis.h_eval.count"] == 3.0
    total, self_time, _ = layers.span_totals(spans)
    assert values["cli.self_s"] == pytest.approx(self_time["cli.main"] / 2)
    assert values["integrator.propagate.self_s"] == pytest.approx(
        (total["integrator.propagate"] - total["analysis.h_eval"]) / 2
    )


def test_traced_propagate_counts_exponentials_and_restores_names():
    originals = {attr: getattr(analysis, attr) for attr in layers.ANALYSIS_WRAPS}
    originals["propagate"] = analysis.propagate
    original_run = cli.run_experiment
    params = protocol.solve_parameters(1.0, 0, 15, 1)
    schedule = protocol.schedule_method_a(params)
    space = hilbert.make_space(2, 2)
    plain = analysis.propagate_schedule(space, schedule, tol=1e-2)
    tracer = layers.Tracer()
    tracer.op = 0
    with tracer.installed():
        traced = analysis.propagate_schedule(space, schedule, tol=1e-2)
    assert {attr: getattr(analysis, attr) for attr in originals} == originals
    assert cli.run_experiment is original_run
    assert (traced.propagator.entries == plain.propagator.entries).all()
    counts = tracer.totals()
    values = layers.per_layer_metrics(tracer, 1, 1.0)
    expm = sum(counts[f"integrator.expm.step{k}"] for k in (1, 2, 3))
    # one Hermiticity spot check per propagated step
    assert values["analysis.h_eval.count"] == expm + 3
    assert counts["integrator.accepted_steps"] == plain.step_count
    assert values["integrator.accept_ratio"] == pytest.approx(plain.step_count / expm)
    assert [s[0] for s in tracer.spans].count("analysis.step_hamiltonian") == 3


# ---------------------------------------------------------------------------
# correctness checks fail on corrupted results

REFS = workloads.load_references()


def _report(workload: str) -> dict:
    fids = REFS["workloads"][workload]["fidelities"]
    return {
        "effective_fidelity": fids["effective"],
        "full_fidelities": {k.split(":", 1)[1]: v for k, v in fids.items() if k != "effective"},
        "diagnostics": {"max_unitarity_defect": 1e-12, "integrator_tol": 1e-3},
    }


def _check(workload: str, report, rc: int = 0):
    text = report if report is None or isinstance(report, str) else json.dumps(report)
    return workloads.check_cli(workload, rc, text, REFS)[3]


@pytest.mark.parametrize("workload", workloads.CLI_WORKLOADS)
def test_reference_report_passes(workload):
    assert _check(workload, _report(workload)) == []


@pytest.mark.parametrize("workload", workloads.CLI_WORKLOADS)
def test_cli_check_fails_on_exit_code_and_unreadable_report(workload):
    assert _check(workload, _report(workload), rc=2)
    assert _check(workload, None)
    assert _check(workload, "{not json")
    assert _check(workload, json.dumps({"effective_fidelity": 1.0}))
    assert _check(workload, json.dumps({"effective_fidelity": "1", "full_fidelities": []}))


@pytest.mark.parametrize("workload", workloads.CLI_WORKLOADS)
def test_cli_check_fails_on_a_wrong_or_missing_fidelity(workload):
    report = _report(workload)
    report["full_fidelities"]["vacuum"] -= 2 * REFS["window"]
    assert _check(workload, report)
    report = _report(workload)
    del report["full_fidelities"]["vacuum"]
    assert _check(workload, report)


def test_gate_report_check_fails_outside_the_criterion7_window():
    refs = copy.deepcopy(REFS)
    refs["criterion7_frozen"]["value"] += 2 * refs["criterion7_frozen"]["window"]
    text = json.dumps(_report(workloads.GATE_REPORT))
    assert workloads.check_cli(workloads.GATE_REPORT, 0, text, refs)[3]


def test_detuned_check_fails_on_unitarity_defect():
    report = _report(workloads.DETUNED_TARGETS)
    report["diagnostics"]["max_unitarity_defect"] = 1.1e-2
    assert _check(workloads.DETUNED_TARGETS, report)


def test_design_check_fails_on_fidelity_and_round_trip():
    good = (1.0, 1.0 - 1e-15, True)
    deviations, failures = workloads.check_design([good, good])
    assert len(deviations) == 4 and max(deviations) < 2e-15 and failures == []
    for bad in ((1.0 - 1e-9, 1.0, True), (1.0, 1.0 - 1e-9, True), (1.0, math.nan, True), (1.0, 1.0, False)):
        assert workloads.check_design([good, bad])[1]


def test_design_points_depend_on_the_seed_only():
    assert workloads.design_points(5, 64) == workloads.design_points(5, 64)
    assert workloads.design_points(5, 64) != workloads.design_points(6, 64)
    results = workloads.design_scan(workloads.design_api(), workloads.design_points(3, 8))
    assert len(results) == 8
    assert workloads.check_design(results)[1] == []


def test_design_scans_take_the_seed_points_a_block_at_a_time(monkeypatch):
    monkeypatch.setattr(workloads, "design_scan", lambda api, points: points)
    scan = run.DesignWorkload(workloads.DESIGN_SCAN, 3, Path("unused"))
    blocks = workloads.DESIGN_POINTS // workloads.SCAN_POINTS
    ops = [scan.op(index, None) for index in range(blocks + 1)]
    assert all(len(op) == workloads.SCAN_POINTS for op in ops)
    assert sum(ops[:blocks], []) == scan.points == workloads.design_points(3)
    assert ops[blocks] == ops[0]


def test_traced_run_fails_when_tracing_changes_a_result(monkeypatch):
    class Flaky:
        name = workloads.DESIGN_SCAN
        out_dir = Path("unused")

        def op(self, index, tracer):
            return [(1.0, 1.0 if tracer is None else 1.0 - 1e-16, True)]

        def check(self, result):
            return run.Outcome(tuple(result))

        def traced(self, tracer):
            return run.nullcontext()

    class NoWrite(layers.Tracer):
        def write(self, path):
            pass

    monkeypatch.setattr(layers, "Tracer", NoWrite)
    _, outcomes, _ = run.traced_metrics(Flaky(), 0.0)
    assert outcomes[-1].failures


def test_missing_package_source_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(env, "SRC", Path("no-such-dir"))
    with pytest.raises(SystemExit) as exc:
        env.prepare()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
