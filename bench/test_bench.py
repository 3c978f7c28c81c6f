"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Every workload runs at the tiny size and must print exactly the metrics that
BENCHMARK.json declares; wrong verdicts, from a corrupted operator or a
perturbed golden value, must be counted as failed.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((run.BENCH / "golden.json").read_text())
sys.path.insert(0, str(run.SRC))


def bench(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--profile", "tiny"])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def one_pass(workload: str, golden: dict) -> workloads.Tally:
    tally = workloads.Tally()
    run.run_pass(workloads.WORKLOADS[workload]("tiny", 0, golden), tally)
    return tally


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    res = bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_every_per_layer_metric_is_traced():
    assert {m["name"] for m in SPEC["per_layer"]} <= tracing.METRIC_NAMES | {"trace.overhead_s"}


def test_traced_counts_repeat_and_tracer_uninstalls():
    import collatzlab

    runs = [bench("preset-sweep", 1) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0 and counts[0]["gcmap.apply.calls"] > 0
    assert not hasattr(collatzlab.GCMap.apply, "__wrapped__")
    assert not hasattr(collatzlab.operators.build_T, "__wrapped__")


def test_corrupted_operator_counts_as_failed(monkeypatch):
    import collatzlab.operators as ops_mod

    real = ops_mod.build_section_ops

    def corrupted(*args, **kwargs):
        ops = real(*args, **kwargs)
        s1 = ops.s1
        # an exact column whose rows are exact, so S1*S1 = I is checked there
        col = min(n for n, c in s1.cols.items() if n in s1.exact_cols and set(c) <= s1.exact_rows)
        (row,) = s1.cols[col]
        return dataclasses.replace(ops, s1=s1.with_entry(row, col, 2))

    monkeypatch.setattr(ops_mod, "build_section_ops", corrupted)
    tally = one_pass("section-battery", GOLDEN)
    assert tally.failed == tally.attempted == len(workloads.SECTION_REFS)


def _perturb(workload: str, golden: dict) -> None:
    if workload == "range-scan":
        golden[workload]["tiny"]["max_steps_to_drop"] += 1
    elif workload == "span-class":
        for entry in golden[workload]["tiny"]["entries"].values():
            entry[2] += 1
    elif workload == "section-battery":
        golden[workload]["tiny"]["collatz"]["columns_checked"][0] += 1
    else:
        for digest in golden[workload]["requests"].values():
            digest[2] += 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_perturbed_golden_counts_as_failed(workload):
    assert one_pass(workload, GOLDEN).failed == 0
    golden = copy.deepcopy(GOLDEN)
    _perturb(workload, golden)
    tally = one_pass(workload, golden)
    assert tally.failed >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "range-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
