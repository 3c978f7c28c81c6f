"""Benchmark of collatzlab: four closed-loop workloads through its public API.

    python3 bench/run.py --workload span-class --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is not installed: ``src`` goes on
the path, as in the tier-1 tests.  One client in one process and one thread
sends each request after the last one returned.  A run sets the workload up,
runs one untimed warm-up pass, then repeats the same pass until ``--seconds``
would be exceeded (at least three passes), grading every verdict against
``golden.json``; a traced run spends half of that time untraced and half
traced.  End-to-end times are in reference seconds (see ``SpeedProbe``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_REF_S = 0.002  # speed-probe time that defines one reference second
PROBE_EVERY_S = 0.1


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=workloads.PROFILES, default="full",
                   help="tiny runs every workload at a test size")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up once and print the seconds it took")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe_work() -> int:
    """Fixed pure-Python work (20,000 dict inserts), about 2 ms on a 2-core Xeon VM."""
    d = {}
    for i in range(20_000):
        d[i] = (3 * i + 1) >> 1
    return len(d)


class SpeedProbe:
    """Samples how fast the machine runs Python while a run measures.

    Called between requests, outside the timed intervals, it times
    ``probe_work`` about once per ``PROBE_EVERY_S`` of elapsed time.  On a
    shared host, Python throughput drifts by 20-50% from one minute to the
    next; dividing by the run's median probe time removes most of that drift.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()
        self.last = time.perf_counter()

    def __call__(self) -> None:
        due = round((time.perf_counter() - self.last) / PROBE_EVERY_S)
        if due:
            for _ in range(min(due, 40)):
                self.sample()
            self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds."""
        return PROBE_REF_S / statistics.median(self.samples)


def probe_setup(args) -> tuple[float, float]:
    """Wall seconds one fresh process takes to import collatzlab and set the
    workload up, and its factor to reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--profile", args.profile, "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    return got["setup_s"], got["scale"]


def run_pass(plan, tally, wrap=None, between=None):
    """Run one pass and grade it; return the summed request latencies, the
    latencies, and the pass's grades."""
    results, latencies = [], []
    for rid, fn in plan.requests:
        if between is not None:
            between()
        if wrap is not None:
            fn = wrap(rid, fn)
        t0 = time.perf_counter()
        results.append(fn())
        latencies.append(time.perf_counter() - t0)
    graded = plan.check(results)
    tally.add(graded)
    return sum(latencies), latencies, graded


def measure(plan, tally, seconds, min_passes, wrap=None, on_pass=None, between=None):
    """Repeat passes until the next one would end after ``seconds``."""
    walls, latencies = [], []
    begin = time.perf_counter()
    while True:
        wall, lat, graded = run_pass(plan, tally, wrap, between)
        walls.append(wall)
        latencies += lat
        if on_pass is not None:
            on_pass(graded)
        if len(walls) >= min_passes and time.perf_counter() - begin + wall > seconds:
            return walls, latencies


def end_to_end(args, plan, tally) -> tuple[dict, list]:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    run_pass(plan, tally)  # warm-up
    speed = SpeedProbe()
    walls, lat = measure(plan, tally, args.seconds, MIN_PASSES, between=speed)
    k = speed.scale()
    wall = {
        "setup_s": statistics.median(s for s, _ in setups),
        "verdict_s": statistics.median(walls),
        "request_p50_ms": 1e3 * statistics.median(lat),
        "request_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
    }
    verdict = k * wall["verdict_s"]
    values = {
        "setup_s": statistics.median(s * scale for s, scale in setups),
        "verdict_s": verdict,
        "items_per_s": plan.items / verdict,
        "request_p50_ms": k * wall["request_p50_ms"],
        "request_p90_ms": k * wall["request_p90_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_ratio": tally.certified / tally.coverage,
    }
    notes = [f"passes={len(walls)} requests={len(lat)} items/pass={plan.items}",
             f"speed probe: median {statistics.median(speed.samples) * 1e3:.4f} ms over {len(speed.samples)} samples,"
             f" reference {PROBE_REF_S * 1e3:g} ms, scale {k:.4f}",
             "wall (unscaled): " + " ".join(f"{name}={v:.6g}" for name, v in wall.items())]
    return values, notes


def per_layer(args, plan, tally, env) -> tuple[dict, list]:
    import tracing

    run_pass(plan, tally)  # warm-up
    untraced_speed = SpeedProbe()
    untraced_walls, _ = measure(plan, tally, args.seconds / 2, MIN_TRACED_PASSES, between=untraced_speed)
    untraced = untraced_speed.scale() * statistics.median(untraced_walls)
    tracer = tracing.Tracer(args.workload)
    traced_speed = SpeedProbe()
    tracer.install()
    try:
        def wrap(rid, fn):
            tracer.request = rid
            return tracer.wrap("bench.request", fn, True, None)

        def on_pass(graded):
            tracer.end_pass(graded.layer)
            tracer.begin_pass()

        tracer.begin_pass()
        walls, _ = measure(plan, tally, args.seconds / 2, MIN_TRACED_PASSES, wrap, on_pass, traced_speed)
    finally:
        tracer.uninstall()
    traced = traced_speed.scale() * statistics.median(walls)
    values = {name: statistics.median(p.get(name, 0) for p in tracer.passes) for name in tracing.METRIC_NAMES}
    # the two halves run at different times, so compare them in reference seconds
    values["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "environment": env})
    notes = [f"traced passes={len(walls)} verdict_s traced={traced} untraced={untraced} (reference seconds)",
             f"wall verdict_s traced={statistics.median(walls)} untraced={statistics.median(untraced_walls)}",
             f"counts repeat across traced passes: {tracer.calls_repeat()}",
             f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}"]
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "collatzlab" / "__init__.py").is_file():
        print("bench: collatzlab sources not found under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    golden = json.loads((BENCH / "golden.json").read_text())
    setup = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        t0 = time.perf_counter()
        setup(args.profile, args.seed, golden)
        setup_s = time.perf_counter() - t0
        speed = SpeedProbe()
        for _ in range(9):
            speed.sample()
        print(json.dumps({"setup_s": setup_s, "scale": speed.scale()}))
        return 0

    plan = setup(args.profile, args.seed, golden)
    import collatzlab

    if Path(collatzlab.__file__).resolve().parent != (SRC / "collatzlab").resolve():
        print("bench: collatzlab was not imported from src/", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = workloads.Tally()
    env = environment()
    if args.trace:
        values, notes = per_layer(args, plan, tally, env)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(args, plan, tally)
        wanted = spec["end_to_end"]

    print(f"environment: {json.dumps(env)}")
    print(f"workload={args.workload} seed={args.seed} profile={args.profile} trace={args.trace}")
    for line in notes:
        print(line)
    for m in wanted:
        print(f"{m['name']:44s} {values[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_ratio':44s} {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} verdicts)")
    print(f"{'inconclusive_ratio':44s} {tally.inconclusive / tally.units:.6g} ({tally.inconclusive}/{tally.units})")
    for note in tally.notes:
        print(f"FAILED: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
