"""Tests for the benchmark itself (not part of the program's suite).

    python3 -m pytest -q perfbench/tests

Quick runs of every workload must print every metric BENCHMARK.json names,
with its unit; corrupted outputs must fail the correctness checks; and a
directory without the program's source must make the benchmark fail
without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from timecaps.training import EpochStats, TrainReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_emits_every_metric(workload, trace):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-3])["env"]
    assert env["os_threads"] == 1 and env["timecaps_threads"] is None  # BLAS pinned, no eval pool
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["tensor.tape_ops"]["value"] == 202


def test_flipped_prediction_fails_the_eval_check():
    labels = [0, 1, 2, 1]
    preds = [0, 1, 2, 2]
    confusion = np.zeros((3, 3), dtype=int)
    for label, pred in zip(labels, preds):
        confusion[label, pred] += 1
    assert workloads.eval_mismatches(preds, preds, confusion, labels) == 0
    flipped = preds[:2] + [0] + preds[3:]
    assert workloads.eval_mismatches(flipped, preds, confusion, labels) == 1
    short = confusion.copy()
    short[0, 0] -= 1
    assert workloads.eval_mismatches(preds, preds, short, labels) == len(labels)


def test_flipped_prediction_fails_a_desk_eval_run(monkeypatch, capsys):
    honest = workloads.evaluate_rows

    def one_flipped(params, dataset):
        preds = honest(params, dataset)
        preds[0] = (preds[0] + 1) % dataset.num_classes
        return preds

    monkeypatch.setattr(workloads, "evaluate_rows", one_flipped)
    code = run.main(["--workload", "desk-eval", "--seed", "3", "--seconds", "0.5", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_non_finite_loss_fails_the_train_check():
    good = TrainReport(epochs=[EpochStats(1, 0.4, 0.9, 0.5, 0.5)], confusion=np.eye(3, dtype=int))
    assert workloads.report_ok(good, 3)
    bad = TrainReport(epochs=[EpochStats(1, math.nan, 0.9, 0.5, 0.5)], confusion=np.eye(3, dtype=int))
    assert not workloads.report_ok(bad, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_cli(tmp_path, "--workload", "desk-train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
