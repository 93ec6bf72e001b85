"""Smoke runs of the benchmark at a tiny size; no timing is asserted.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def tiny_run(monkeypatch, capsys):
    """run.main in-process on a 48-point pool, one set-up launch and a
    10-point minimum; returns its exit code and stdout."""
    import run
    import workloads

    monkeypatch.setattr(run, "MIN_POINTS", 10)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "IMPORT_LAUNCHES", 1)
    for name in workloads.POOL_SIZES:
        monkeypatch.setitem(workloads.POOL_SIZES, name, 48)

    def go(workload, trace):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", str(trace)])
        return code, capsys.readouterr().out

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_oracles_ran(tiny_run, workload, trace):
    code, stdout = tiny_run(workload, trace)
    assert code == 0
    *report, last = stdout.splitlines()
    result = json.loads(last)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(f"# {m['name']} ") and line.split()[3] == m["unit"] for line in report), m
    failures = next(line for line in report if line.startswith("# failure_ratio "))
    assert f" of {result['attempted']} points wrong" in failures


def test_oracle_rejects_a_wrong_value():
    from check import Checker
    from workloads import make_pool

    point = make_pool("peaked_shells", 1, 8)[0]
    checker = Checker()
    right = point[2]["value"][1]
    checker.check(point, SimpleNamespace(value=right), None, "", "")
    checker.check(point, SimpleNamespace(value=right * (1 + 1e-7)), None, "", "")
    checker.check(point, SimpleNamespace(value=right * (1 + 1e-3)), None, "", "")
    assert (checker.attempted, checker.failed) == (3, 1)
    assert checker.known == {"quadrature_error_underestimate": 1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "peaked_shells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
