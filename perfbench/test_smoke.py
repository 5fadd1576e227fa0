"""Smoke test for the benchmark on tiny cases.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is reported with its unit in
both trace modes, that a wrong expected verdict shows up as a failure,
and that the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "UPPER_K2", [Case("P5,P5", 6), Case("C6,C6", 7)])
    monkeypatch.setattr(workloads, "UPPER_THREADS2", [Case("C4,C4,C4", 6, threads=2),
                                                      Case("P5,P5,P3", 6, threads=2)])
    monkeypatch.setattr(workloads, "PARITY_PROBE", Case("P5,P5,P3", 6, threads=2, budget=10_000))
    monkeypatch.setattr(workloads, "PARITY_REFERENCE", Case("P5,P5,P3", 6))
    ledger = workloads.load_ledger()
    ledger["P5,P5,P3@6 threads=1"] = {"nodes": 4593}
    monkeypatch.setattr(workloads, "load_ledger", lambda: ledger)
    monkeypatch.setattr(workloads, "HOST_SIZES", (12, 30, 45))


@pytest.mark.parametrize("workload", ["upper-k2", "upper-threads2", "host-check"])
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_reported_with_its_unit(tiny, workload, traced):
    r = run.run(workload, seed=1, seconds=0, traced=traced)
    out = run.result_json(r, traced)
    declared = BENCH["per_layer"] if traced else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in out["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    text = "\n".join(run.summary_lines(r, workloads.WHY[workload]))
    for name, (_, unit) in r["end_to_end"].items():
        assert f"{name} " in text and f" {unit}" in text
    assert "failed_frac" in text


def test_wrong_expected_verdict_raises_failed_frac(tiny, monkeypatch):
    base = run.run("upper-k2", seed=1, seconds=0, traced=False)
    assert base["failed"] == 0
    real = workloads.known_value
    # claim GR(P5,P5) = 7, so the all_forced verdict at 6 is "wrong"
    monkeypatch.setattr(workloads, "known_value",
                        lambda names: 7 if names == "P5,P5" else real(names))
    bad = run.run("upper-k2", seed=1, seconds=0, traced=False)
    assert bad["failed"] / bad["attempted"] > base["failed"] / base["attempted"]
    assert not run.result_json(bad, False)["correct"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "upper-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
