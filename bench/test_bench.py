"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, "full", tmp_path / "a")
        b = workloads.generate(name, 7, "full", tmp_path / "b")
        c = workloads.generate(name, 8, "full", tmp_path / "c")
        config = [(tmp_path / d / "config.json").read_text() for d in "abc"]
        assert config[0] == config[1]
        assert [argv[:-4] for argv in a["commands"]] == [argv[:-4] for argv in b["commands"]]
        assert (config[0], a["commands"][0][:-4]) != (config[2], c["commands"][0][:-4])


def test_sweep_angles_keep_the_full_range_but_avoid_the_cli_guard(tmp_path):
    for seed in range(40):
        expect = workloads.generate("sweep", seed, "full", tmp_path)["expect"]
        assert -86 <= expect["start"] <= -84 and -6 <= expect["stop"] <= -4
        angles = workloads.linspace(expect["start"], expect["stop"], expect["count"])
        assert min(abs(a + 45) for a in angles) >= workloads.CLI_GUARD_DEG
        assert min(abs(a + 45) for a in angles) < 0.1  # dark-port rows stay in


def test_trace_angles_are_distinct_and_away_from_the_dark_port(tmp_path):
    for seed in range(40):
        angles = workloads.generate("traces", seed, "full", tmp_path)["expect"]["angles"]
        assert len(set(f"{a:.2f}" for a in angles)) == 8
        assert all(abs(a + 45) >= 5 and -85 <= a <= -5 for a in angles)


def _smoke_pass(name, tmp_path, tracer=None):
    import fastlight.cli as cli

    plan = workloads.generate(name, 3, "smoke", tmp_path)
    if tracer is not None:
        tracer.pass_id = 0
        tracer.install(cli)
    try:
        elapsed, failures = worker.run_pass(cli.main, plan["commands"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    facts = worker.file_facts(plan["out"])
    problems, info = workloads.check(plan, facts)
    return elapsed, failures + problems, info


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_passes_its_output_check(name, tmp_path):
    _, problems, info = _smoke_pass(name, tmp_path)
    assert problems == []
    assert info["items"] > 0


def test_check_reports_a_corrupted_output(tmp_path):
    import fastlight.cli as cli

    plan = workloads.generate("budget", 3, "smoke", tmp_path)
    worker.run_pass(cli.main, plan["commands"])
    path = Path(plan["out"]) / "crossover.csv"
    path.write_text(path.read_text().replace("5.659", "5.759"))
    problems, _ = workloads.check(plan, worker.file_facts(plan["out"]))
    assert any("crossover" in p for p in problems)


def test_traced_self_times_sum_to_the_traced_pass_time(tmp_path):
    tracer = spans.Tracer()
    elapsed, problems, _ = _smoke_pass("traces", tmp_path, tracer)
    assert problems == []
    assert tracer.spans[0][spans.NAME] == "bench.pass"
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(elapsed, rel=1e-9)
    names = set(spans.pass_summary(tracer.spans)[0])
    assert {"cli.main", "config.load_config", "atomic_response.kk_check",
            "pulse_engine.propagate_lorentzian", "pulse_engine.write_envelope_csv",
            "weak_value.post_select", "analysis.fit_gaussian", "analysis.centroid"} <= names
    assert tracer.counts[0]["pulse_engine.write_envelope_csv_rows"] == 4 * 4096


def test_tracer_restores_the_program():
    import fastlight.analysis as analysis
    import fastlight.cli as cli

    before = (cli.fit_gaussian, analysis.t_wva)
    tracer = spans.Tracer()
    tracer.install(cli)
    assert cli.fit_gaussian is not before[0] and analysis.t_wva is not before[1]
    tracer.uninstall()
    assert (cli.fit_gaussian, analysis.t_wva) == before


def test_self_time_subtracts_the_covered_part_of_children():
    recorded = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union 1..6 is covered once
        ["c", 2.0, 3.0, 1, 0],
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 3.0, 1.0]


def test_import_times_charge_third_party_imports_to_the_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |        150 |     fastlight.atomic_response",
        "import time:       300 |        300 |     scipy.optimize",
        "import time:        20 |        470 |   fastlight.analysis",
        "import time:        10 |        480 | fastlight",
        "import time:         5 |          5 | fastlight.cli",
    ])
    own = spans.import_times(text)
    assert own["fastlight.atomic_response"] == pytest.approx(150e-6)
    assert own["fastlight.analysis"] == pytest.approx(320e-6)
    assert own["fastlight"] == pytest.approx(10e-6)
    assert own["fastlight.cli"] == pytest.approx(5e-6)


def test_tail_leaves_ten_passes_above_it_and_never_drops_below_the_median():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 60.0)
    assert run.tail([2.0]) == (2.0, 100.0)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    proc, lines = _run("--workload", "budget", "--size", "smoke", "--seconds", "0.5",
                       "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _contract()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = _run("--workload", "sweep", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
