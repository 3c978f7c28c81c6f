"""``scripts/bench_pairs.py``: the pair summary on fixed numbers, and its exit
codes on a scratch git repository whose ``bench/run.py`` is a stub, so no
test here runs the benchmark itself."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "verdict_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def runs(**metrics):
    """One run per position of the value lists."""
    n = len(next(iter(metrics.values())))
    return [{"correct": True, "metrics": {k: {"value": v[i]} for k, v in metrics.items()}} for i in range(n)]


def test_summary_on_fixed_numbers():
    base = runs(verdict_s=[5.0, 1.0, 2.0, 4.0, 3.0], items_per_s=[10, 20, 30, 40, 50])
    head = runs(verdict_s=[4.0, 1.0, 2.5, 3.0, 2.0], items_per_s=[11, 20, 29, 41, 51])
    rows = {r["name"]: r for r in bench_pairs.summarize(END_TO_END, base, head)}
    assert set(rows) == {"verdict_s", "items_per_s"}  # setup_s is reported by neither side
    v = rows["verdict_s"]
    assert v["base"] == [2.0, 3.0, 4.0] and v["head"] == [2.0, 2.5, 3.0]
    # lower is better: pairs 1, 4 and 5 won, pair 2 tied, pair 3 lost
    assert (v["head_won"], v["pairs"], v["better"]) == (3, 5, "lower")
    i = rows["items_per_s"]
    assert i["base"] == [20.0, 30.0, 40.0] and i["head"] == [20.0, 29.0, 41.0]
    # higher is better: pairs 1, 4 and 5 won, pair 2 tied, pair 3 lost
    assert i["head_won"] == 3
    text = bench_pairs.format_rows(list(rows.values()))
    assert "verdict_s" in text and "3 [2, 4] s" in text and "3 of 5" in text


def test_summary_skips_pairs_where_a_side_lacks_the_metric():
    base = runs(verdict_s=[1.0, 1.0]) + [{"correct": False, "metrics": {}}]
    head = runs(verdict_s=[0.5, 2.0, 0.1])
    (row,) = bench_pairs.summarize(END_TO_END, base, head)
    assert (row["pairs"], row["head_won"]) == (2, 1)


RUN_OUTPUT = """environment: {}
workload=span-class seed=1 profile=default trace=0
passes=1100 requests=1100 items/pass=200
speed probe: median 2.3456 ms over 1101 samples, reference 2.5 ms, scale 0.9382
wall (unscaled): setup_s=0.51 verdict_s=0.0224 request_p50_ms=22.4 request_p90_ms=25.1
verdict_s                                    0.0210158 s
"""


def test_notes_read_wall_verdict_and_probe():
    assert bench_pairs.notes_of(RUN_OUTPUT) == {
        "wall verdict_s": {"value": 0.0224}, "speed probe": {"value": 2.3456},
    }
    # the scaled verdict_s line and the other wall values are not read
    probe_only = "\n".join(line for line in RUN_OUTPUT.splitlines() if not line.startswith("wall"))
    assert bench_pairs.notes_of(probe_only) == {"speed probe": {"value": 2.3456}}
    assert bench_pairs.notes_of("some metric lines\n{}") == {}


def test_summary_of_the_note_rows():
    def with_notes(wall, probe):
        return [{"correct": True, "metrics": bench_pairs.notes_of(
            f"speed probe: median {p} ms over 9 samples\nwall (unscaled): setup_s=1 verdict_s={w} x=2"
        )} for w, p in zip(wall, probe)]

    base = with_notes([0.03, 0.02, 0.025], [2.5, 2.4, 2.6])
    head = with_notes([0.02, 0.021, 0.03], [2.2, 2.3, 2.4])
    head[1]["metrics"].pop("wall verdict_s")  # a run whose output lacked the line
    rows = {r["name"]: r for r in bench_pairs.summarize(END_TO_END + bench_pairs.NOTES, base, head)}
    assert set(rows) == {"wall verdict_s", "speed probe"}
    wall, probe = rows["wall verdict_s"], rows["speed probe"]
    assert (wall["pairs"], wall["head_won"]) == (2, 1)  # pair 2 left out, pair 3 lost
    assert wall["base"][1] == pytest.approx(0.0275) and wall["head"][1] == pytest.approx(0.025)
    assert (probe["pairs"], probe["head_won"], probe["base"][1], probe["head"][1]) == (3, None, 2.5, 2.3)
    text = bench_pairs.format_rows([wall, probe])
    assert "1 of 2" in text and "- of 3" in text and "2.3 [2.25, 2.35] ms" in text


# --- the script on a scratch repository --------------------------------------------------

STUB = """import json, pathlib, sys
speed = float(pathlib.Path("speed.txt").read_text())
with open("runs.log", "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
print("some metric lines")
print(json.dumps({"correct": True, "metrics": {"verdict_s": {"value": speed, "unit": "s"}}}))
"""


def git(repo: Path, *argv: str) -> str:
    done = subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *argv],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def commit(repo: Path, files: dict[str, str]) -> str:
    for name, text in files.items():
        path = repo / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "x")
    return git(repo, "rev-parse", "HEAD")


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    benchmark = {
        "command": ["python3", "bench/run.py"], "paths": ["bench"],
        "workloads": [{"name": "w"}], "end_to_end": END_TO_END,
    }
    base = commit(repo, {"BENCHMARK.json": json.dumps(benchmark), "bench/run.py": STUB, "speed.txt": "2.0"})
    head = commit(repo, {"speed.txt": "1.0"})
    bench = commit(repo, {"bench/run.py": STUB + "\n"})
    spec = commit(repo, {"BENCHMARK.json": json.dumps({**benchmark, "run_seconds": 3})})
    return repo, {"base": base, "head": head, "bench": bench, "spec": spec}


def pairs(repo: Path, *argv: str) -> subprocess.CompletedProcess:
    tmp = repo.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], cwd=repo, capture_output=True, text=True, timeout=120,
        env={**os.environ, "TMPDIR": str(tmp)},
    )


def test_a_stub_benchmark_runs_in_alternating_pairs(repo):
    repo, rev = repo
    done = pairs(repo, "--workload", "w", "--pairs", "3", "--seconds", "2", rev["base"], rev["head"])
    assert done.returncode == 0, done.stderr
    assert "verdict_s" in done.stdout and "3 of 3" in done.stdout
    assert "wall verdict_s" not in done.stdout  # the stub prints no notes: its rows are left out
    order = [line.split()[2].rstrip(":") for line in done.stderr.splitlines() if line.startswith("pair ")]
    assert order == ["base", "head", "head", "base", "base", "head"]
    assert not list((repo.parent / "tmp").iterdir())  # the extracted trees are gone
    assert not (repo / "runs.log").exists()  # nothing ran in the checkout


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--workload", "w", "--pairs", "1", "no-such-rev", "HEAD"), "unknown revision 'no-such-rev'"),
        (("--workload", "w", "--pairs", "1", "{base}", "no-such-rev"), "unknown revision 'no-such-rev'"),
        (("--workload", "nope", "--pairs", "1", "{base}", "{head}"), "unknown workload 'nope'"),
        (("--workload", "w", "--pairs", "1", "{base}", "{bench}"), "bench or BENCHMARK.json differ"),
        (("--workload", "w", "--pairs", "1", "{head}", "{spec}"), "bench or BENCHMARK.json differ"),
        (("--workload", "w", "--pairs", "1", "{bench}"), "bench or BENCHMARK.json differ"),  # HEAD is spec
        (("--workload", "w", "--pairs", "0", "{base}", "{head}"), "--pairs must be >= 1"),
        (("--workload", "w", "{base}"), None),  # no --pairs: a usage error
    ],
)
def test_bad_input_exits_3_before_any_run(repo, argv, message):
    repo, rev = repo
    done = pairs(repo, *(a.format(**rev) for a in argv))
    assert done.returncode == 3
    if message:
        assert message in done.stderr
    assert not list((repo.parent / "tmp").iterdir())
