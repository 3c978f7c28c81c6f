"""Record the expected verdicts in bench/golden.json from the current code.

    python3 bench/record_golden.py

The file is the benchmark's correctness oracle: a later change that alters any
of these verdicts, or one byte of CLI output on the preset-sweep menu, is
counted as failed.  Re-record only when a verdict is meant to change, and say
why in the change.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads as w

ORBIT_POOL_SEED = 20241108


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"refusing to record an unexpected verdict: {what}")


def record() -> dict:
    sys.path.insert(0, str(run.SRC))
    cl = w._collatzlab()
    golden: dict = {"range-scan": {}, "span-class": {}, "section-battery": {}}
    for profile in w.PROFILES:
        rep = cl.rangecheck.verify_range_collatz(w.RANGE_LIMIT[profile])
        require(rep.verified and not rep.inconclusive, rep)
        golden["range-scan"][profile] = w.range_verdict(rep)

        p = w.SPAN[profile]
        rep = cl.operators.span_vs_class(
            cl.families.collatz(),
            cl.operators.BasisWindow.range(1, p["window"]),
            p["fuel"],
            starts=range(1, p["start_range"] + 1),
        )
        require(rep.ok, "span_vs_class failed")
        golden["span-class"][profile] = {
            "window": p["window"],
            "entries": {str(e.start): [e.span_size, e.class_size, e.boundary_members] for e in rep.entries},
        }

        p = w.SECTION[profile]
        golden["section-battery"][profile] = {}
        for ref in w.SECTION_REFS:
            sec = cl.families.preset_section(ref)
            win = cl.operators.BasisWindow.section(sec.sigma, p["window"])
            got = w.section_verdict(cl, sec, win, p["window"], p["fuel"])
            require(got["ck_passed"] and got["matrix"] == w.CK_MATRIX and got["relations_ok"], got)
            require(got["inconclusive_columns"] == 0 and min(got["columns_checked"]) > 0, got)
            golden["section-battery"][profile][ref] = got

    rng = random.Random(ORBIT_POOL_SEED)
    pool = {m: sorted(rng.sample(range(1, 10**9 + 1), w.ORBIT_POOL_SIZE)) for m in w.MAPS}
    argvs = w.suite_menu() + [
        w.orbit_request(m, s, csv) for m in w.MAPS for s in pool[m] for csv in (False, True)
    ]
    requests = {}
    for argv in argvs:
        code, out = w.cli_request(cl, argv)
        require(code in (0, 1, 2), (argv, code))
        requests[w.request_key(argv)] = w.output_digest(code, out)
    golden["preset-sweep"] = {"orbit_pool": pool, "requests": requests}
    return golden


if __name__ == "__main__":
    golden = record()
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
