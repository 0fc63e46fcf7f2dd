"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import cavmag  # noqa: E402
import cavmag.cli  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", W.NAMES)
def test_same_seed_gives_identical_inputs(workload):
    assert W.make_inputs(workload, 11, 40) == W.make_inputs(workload, 11, 40)


@pytest.mark.parametrize("workload", W.NAMES)
def test_different_seed_gives_different_inputs(workload):
    assert W.make_inputs(workload, 11, 40) != W.make_inputs(workload, 12, 40)


def test_cli_points_stay_in_the_box_and_the_probe_holds_the_known_failures():
    for p in W.make_inputs("cli_points", 3, 400):
        assert p["r"] <= W.CLI_R_MAX and p["temperature"] <= 1.0 and p["g"] <= 10.0 and p["kappa_m"] >= 0.01
    probe = W.defect_probe()
    assert probe == W.defect_probe()
    kinds = [kind for kind, _ in probe]
    assert kinds.count("r_tail") == kinds.count("kappa_m_tail") == W.PROBE_PER_TAIL
    for kind, p in probe:
        if kind == "r_tail":
            assert p["r"] >= 4.5
        elif kind == "kappa_m_tail":
            assert p["g"] == 0.0 and p["kappa_m"] <= 1e-12
        else:
            assert p in W.FAILING_BOX_POINTS


def test_probe_counts_failures_by_kind(monkeypatch):
    failed, disagreeing = run.run_probe(cavmag)
    assert set(failed) == set(W.PROBE_KINDS) and disagreeing == 0
    monkeypatch.setattr(cavmag.cli, "main", lambda argv: 3)
    failed, disagreeing = run.run_probe(cavmag)
    assert failed == {"r_tail": W.PROBE_PER_TAIL, "kappa_m_tail": W.PROBE_PER_TAIL,
                      "box_point": len(W.FAILING_BOX_POINTS)}


def test_reference_agrees_with_program_and_flags_a_perturbed_value():
    point = W.make_inputs("cli_points", 5, 1)[0]
    params = W.system_params(cavmag, point)
    report = cavmag.entanglement_report(params)
    program = {name: getattr(report, name) for name in reference.PAIRS}
    ref = reference.outputs(params, program)
    assert reference.disagreements(program, ref) == []
    perturbed = dict(program, E_mm=program["E_mm"] + 1e-7)
    assert reference.disagreements(perturbed, ref) == ["E_mm"]
    assert reference.disagreements(dict(program, E_aa=float("nan")), ref) == ["E_aa"]


def test_threshold_bracket_check():
    params = dataclasses.replace(cavmag.BASELINE, r=0.4)
    t_c = cavmag.find_temperature_threshold(params, t_max=W.THRESHOLD_T_MAX, tol=W.THRESHOLD_TOL)
    assert reference.threshold_brackets(params, t_c, W.THRESHOLD_TOL)
    assert not reference.threshold_brackets(params, t_c + 0.05, W.THRESHOLD_TOL)


def test_tracer_self_time_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.qualified = ("outer", "inner")
    inner = tracer.wrap(1, lambda: None)

    def body():
        inner()  # spans [1, 3]
        inner()  # spans [4, 4.5]

    tracer.wrap(0, body)()  # spans [0, 10]
    assert list(tracer.parents) == [-1, 0, 0]
    assert tracer.self_times() == [10.0 - 2.0 - 0.5, 2.0, 0.5]
    assert tracer.totals() == {"outer": (1, 7.5), "inner": (2, 2.5)}


def test_tracer_patches_every_binding_and_restores_them():
    original = cavmag.linsys.solve_lyapunov
    tracer = Tracer()
    tracer.install()
    try:
        assert cavmag.linsys.solve_lyapunov is not original
        assert cavmag.model.solve_lyapunov is cavmag.linsys.solve_lyapunov
        assert cavmag.solve_lyapunov is cavmag.linsys.solve_lyapunov
        cavmag.steady_state_cm(cavmag.BASELINE)
    finally:
        tracer.uninstall()
    assert cavmag.linsys.solve_lyapunov is original
    assert cavmag.model.solve_lyapunov is original
    calls, _ = tracer.totals()["linsys.solve_lyapunov"]
    assert calls == 1
    assert tracer.absent == []


def test_tracer_reports_a_removed_name_as_absent():
    tracer = Tracer()
    tracer.install({"linsys": ("solve_lyapunov", "no_such_function"), "nomodule": ("f",)})
    tracer.uninstall()
    assert tracer.absent == ["linsys.no_such_function", "nomodule.f"]


def test_uncaught_cli_exception_is_one_failed_op(monkeypatch):
    job = run.Job(cavmag, "cli_points", 1)
    real_main = cavmag.cli.main
    calls = []

    def flaky_main(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real_main(argv)

    monkeypatch.setattr(cavmag.cli, "main", flaky_main)
    records = []
    for k in range(3):
        prepared = job.prepare(k)
        out = job.call(prepared)
        records.append(job.check(k, k, prepared, out))
    assert records == [(1, 0), (1, 1), (1, 0)]
    assert job.call(job.prepare(1)).code == 0


def test_a_failed_op_on_a_library_workload_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda *args: [(1.0, 1.0)])
    monkeypatch.setattr(W, "run_threshold", lambda cavmag, params: float("nan"))
    argv = ["--workload", "threshold_scan", "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_latency_percentiles_count_failures_as_misses():
    records = [run.Record(0.0, 0.001 * (k + 1), 1, int(k >= 95), False) for k in range(100)]
    lat = run.latencies_ms(records)
    assert run.percentile(lat, 0.90) == pytest.approx(90.0)
    assert run.percentile(lat, 0.99) == float("inf")


def test_op_times_are_scaled_by_the_calibration_bursts_of_their_window():
    records = [run.Record(float(k), k + 0.5, 2, int(k == 3), False) for k in range(4)]
    slow = run.CALIBRATION_REF_S * 2.0  # bursts twice as slow as the reference
    bursts = [(k + 0.6, slow if k < 2 else run.CALIBRATION_REF_S) for k in range(4)]
    parts = [records[:2], records[2:]]
    scales = [run.chunk_scale(part, bursts) for part in parts]
    assert scales == [0.5, 1.0]
    # 7 completed ops in 0.5 * 1.0 s + 1.0 * 1.0 s of scaled call time
    assert run.scaled_rate(parts, scales) == pytest.approx(7 / 1.5)
    assert run.latencies_ms(records[:1], 0.5) == [125.0]
    sizes = [len(p) for p in run.chunks(list(range(101)))]
    assert len(sizes) == run.SCALE_WINDOWS and sum(sizes) == 101 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(capsys, trace, section):
    declared = json.loads((pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    argv = ["--workload", "cli_points", "--seed", "2", "--seconds", "0.4", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
