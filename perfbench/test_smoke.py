"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs in both modes, passes its own
correctness checks, and prints every metric ``BENCHMARK.json`` names,
with its unit, on a ``name = value unit`` line and in the final JSON;
and that the recorded exact values of a seed only bind the program that
recorded them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import ABOUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_workload_and_metric_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(names) == sorted(ABOUT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        line = next(ln for ln in lines if ln.startswith(m["name"] + " = "))
        assert line.endswith(" " + m["unit"])
    assert any(ln.startswith("fail_ratio = 0.0 ") for ln in lines)
    if trace:  # the traced run exports its spans and self-time table
        out = ROOT / ".perfbench-out" / f"{workload}-smoke-seed0-trace"
        table = json.loads((out / "selftime.json").read_text())
        assert table["spans"] and table["critical_path"]["path_seconds"] > 0
        assert (out / "spans.npz").is_file()
        assert (out / "perfetto.json").is_file() == (workload == "paper-ooc")


def test_repeat_run_is_deterministic():
    # the first smoke run of this seed recorded its exact values; a
    # second run must reproduce them (the check counts as an attempt)
    for _ in range(2):
        proc = _run("paper-ooc", 0, seed=7)
        assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_changed_program_is_not_compared_with_old_values(tmp_path):
    # a change that moves simulated time must not fail the repeat check
    # against values the previous program recorded in the same checkout
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in ("src", "perfbench"):
        shutil.copytree(ROOT / d, tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sims = []
    for seek in (None, "11e-3"):
        if seek:
            harness = tmp_path / "src" / "repro" / "bench" / "harness.py"
            text = harness.read_text()
            assert "seek: float = 10e-3" in text
            harness.write_text(text.replace("seek: float = 10e-3", f"seek: float = {seek}"))
        proc = _run("paper-ooc", 0, cwd=tmp_path, seed=5)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stdout
        sims.append(result["metrics"]["sim_elapsed_s"]["value"])
    assert sims[0] != sims[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-ooc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
