#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions on one workload.

    python3 scripts/bench_pairs.py --workload section-battery --pairs 10 BASE [HEAD]

Run from inside the repository.  Each revision (HEAD by default) is
extracted with ``git archive`` into a temporary directory, deleted
afterwards, and ``bench/run.py --trace 0`` runs there ``--pairs`` times per
side, the side that goes first alternating from pair to pair.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles and the number of pairs HEAD won, by the metric's direction; a tie
counts for neither side.  Two rows more are read off each run's notes: the
wall ``verdict_s`` before scaling (the pairs HEAD won too) and the speed
probe's median, which scales it; a run without those lines is left out of
that row.  Exits 0 when every run finished, 1 when a run
failed or graded a verdict wrong, and 3 on a bad argument, an unknown
revision or workload, or when ``bench/`` or ``BENCHMARK.json`` differ
between the two revisions, since the pairs would then not measure the same
benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

INPUT_ERROR = 3


# rows read off a run's notes, with the pattern that reads each; better None: no side wins
NOTES = [
    {"name": "wall verdict_s", "unit": "s", "better": "lower",
     "pattern": re.compile(r"^wall \(unscaled\):.* verdict_s=(\S+)", re.M)},
    {"name": "speed probe", "unit": "ms", "better": None,
     "pattern": re.compile(r"^speed probe: median (\S+) ms", re.M)},
]


class UsageError(Exception):
    pass


def git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], capture_output=True)


def resolve(rev: str) -> str:
    done = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if done.returncode:
        raise UsageError(f"unknown revision {rev!r}")
    return done.stdout.decode().strip()


def benchmark_of(commit: str) -> dict:
    done = git("show", f"{commit}:BENCHMARK.json")
    if done.returncode:
        raise UsageError(f"{commit[:12]} has no BENCHMARK.json")
    return json.loads(done.stdout)


def check_same_benchmark(base: str, head: str, spec: dict) -> None:
    paths = [*spec.get("paths", []), "BENCHMARK.json"]
    if git("diff", "--quiet", base, head, "--", *paths).returncode:
        raise UsageError(f"{' or '.join(paths)} differ between {base[:12]} and {head[:12]}")


def extract(commit: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", commit], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, spec: dict, args) -> dict:
    argv = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    argv[0] = sys.executable if argv[0].startswith("python") else argv[0]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return {"correct": False, "metrics": {}, "error": done.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    result["metrics"].update(notes_of(done.stdout))
    return result


def notes_of(stdout: str) -> dict:
    """The ``NOTES`` rows that a run's output holds, as metrics."""
    found = {n["name"]: n["pattern"].search(stdout) for n in NOTES}
    return {name: {"value": float(m.group(1))} for name, m in found.items() if m}


def summarize(end_to_end: list[dict], base: list[dict], head: list[dict]) -> list[dict]:
    """Per end-to-end metric that both sides report: each side's quartiles
    (q1, median, q3) and the pairs HEAD won by the metric's direction (None
    where the metric has none)."""
    rows = []
    for m in end_to_end:
        name = m["name"]
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in zip(base, head)
                 if name in b["metrics"] and name in h["metrics"]]
        if not pairs:
            continue
        b, h = np.array(pairs, dtype=float).T
        won = None if m["better"] is None else (h < b if m["better"] == "lower" else h > b)
        rows.append({
            "name": name, "unit": m["unit"], "better": m["better"], "pairs": len(pairs),
            "base": np.percentile(b, [25, 50, 75]).tolist(),
            "head": np.percentile(h, [25, 50, 75]).tolist(),
            "head_won": None if won is None else int(won.sum()),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<16} {'better':<7} {'base median [q1, q3]':<42} {'head median [q1, q3]':<42} head won"]
    for r in rows:
        sides = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {r['unit']}" for q in (r["base"], r["head"])]
        won = "-" if r["head_won"] is None else r["head_won"]
        out.append(f"{r['name']:<16} {r['better'] or '-':<7} {sides[0]:<42} {sides[1]:<42} {won} of {r['pairs']}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return 0 if exc.code == 0 else INPUT_ERROR
    try:
        if args.pairs < 1 or args.seconds <= 0:
            raise UsageError("--pairs must be >= 1 and --seconds > 0")
        base, head = resolve(args.base), resolve(args.head)
        spec = benchmark_of(head)
        check_same_benchmark(base, head, spec)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise UsageError(f"unknown workload {args.workload!r}")
    except UsageError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return INPUT_ERROR
    commits = {"base": base, "head": head}
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: extract(c, Path(tmp) / side) for side, c in commits.items()}
        for i in range(args.pairs):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(run_once(trees[side], spec, args))
                print(f"pair {i + 1} {side}: correct={runs[side][-1]['correct']}", file=sys.stderr)
    print(f"{args.workload}: base {base[:12]}, head {head[:12]}, {args.pairs} pairs of {args.seconds:g} s")
    print(format_rows(summarize(spec["end_to_end"] + NOTES, runs["base"], runs["head"])))
    failed = [r.get("error", "a verdict graded wrong") for rs in runs.values() for r in rs if not r["correct"]]
    for err in failed[:3]:
        print(f"failed run: {err}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
