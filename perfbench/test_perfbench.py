"""The benchmark's own test.

Runs every workload at the tiny size and checks that one command prints every
declared metric with its unit, that each output check rejects a wrong
expected value, and that the benchmark refuses to run without the program.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_sbcpmu()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())["tiny"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_command_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    rows = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in declared.items():
        assert rows[name] == unit
    assert "fail_ratio" in rows
    if not trace:
        assert rows["artifact_mb"] == "MB" and "(op_s.tail is p" in proc.stdout


def prepared(cls, tmp_path):
    workload = cls(tmp_path, SEED, "tiny")
    workload.prepare(EXPECTED.get(cls.name, {}))
    return workload


@pytest.mark.parametrize("key, factor", [("grand_mean_tve", 1 + 1e-6), ("fe_hz", 1 + 1e-6), ("trials", 2)])
def test_simulate_check_rejects_wrong_expected(tmp_path, key, factor):
    workload = prepared(run.SimulateRef, tmp_path)
    assert workload.run_op(0, traced=False).errors == []
    workload.expected = dict(workload.expected, **{key: workload.expected[key] * factor})
    assert workload.run_op(1, traced=False).errors


def test_simulate_check_needs_every_report_row():
    manifest = {"grand_mean_tve": 0.01, "fe_hz": 8e-4, "trials": 8}
    expected = dict(manifest)
    report = "TVE grand mean  x\nTVE max of mean trace  x\nFE  x\n"
    assert run.check_simulate(manifest, report, expected) == []
    assert run.check_simulate(manifest, report.replace("FE  x\n", ""), expected)


@pytest.mark.parametrize("key, factor", [("grand_mean_tve", 1 + 1e-6), ("trials", 2)])
def test_mc_check_rejects_wrong_expected(tmp_path, key, factor):
    workload = prepared(run.McBatch, tmp_path)
    assert workload.run_op(0, traced=False).errors == []
    workload.expected = dict(workload.expected, **{key: workload.expected[key] * factor})
    assert workload.run_op(1, traced=False).errors


@pytest.mark.parametrize("part, key, tol_key", [
    ("sweep", "adc_gain_err_ppm", "adc_gain_err_tol_ppm"),
    ("counter", "e_r_ppm_mean", "e_r_tol_ppm"),
    ("delay", "delay_mean_us", "delay_tol_us"),
])
def test_characterize_check_rejects_wrong_truth(tmp_path, part, key, tol_key):
    workload = prepared(run.CharacterizeMerge, tmp_path)
    assert workload.run_op(0, traced=False).errors == []
    truth = workload.truth[part]
    if part == "delay":
        truth[key]["vm"] += 3 * truth[tol_key]["vm"]
    else:
        truth[key] += 3 * truth[tol_key]
    assert workload.run_op(1, traced=False).errors


def test_characterize_check_rejects_unloadable_profile(tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text("{not json")
    assert run.check_characterize(bad, {})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mc-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class SlowDoubleSpeed:
    """A HostSpeed stand-in: each bracket takes 0.2 s and says the host runs at half speed."""

    def scale(self):
        time.sleep(0.2)
        return 2.0


@pytest.mark.parametrize("cls", [run.SimulateRef, run.McBatch])
def test_scaled_time_excludes_the_brackets(tmp_path, cls):
    op = prepared(cls, tmp_path).run_op(0, traced=False, speed=SlowDoubleSpeed())
    assert op.errors == []
    assert op.scaled == pytest.approx(2.0 * op.seconds, rel=0.02)
