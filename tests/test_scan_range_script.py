"""``scripts/scan_range.py`` as a process: its exit code is the scan's verdict.

0 when every start is verified, 2 when a start is inconclusive, and 3 on a
bad limit, step cap or argument, never 1, which means a violation found.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collatzlab.cli import INCONCLUSIVE, INPUT_ERROR, PASS
from collatzlab.rangecheck import verify_range_collatz

ROOT = Path(__file__).resolve().parents[1]


def scan(*argv):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_range.py"), *argv], capture_output=True, env=env, timeout=120
    )


def test_a_verified_scan_exits_0():
    done = scan("--limit", "1000")
    assert done.returncode == PASS
    assert json.loads(done.stdout)["verified"] is True


def test_an_inconclusive_scan_exits_2():
    done = scan("--limit", "30", "--step-cap", "3")
    assert done.returncode == INCONCLUSIVE
    out = json.loads(done.stdout)
    assert not out["verified"] and out["inconclusive"] == [3, 7, 11, 15, 19, 23, 27]


@pytest.mark.parametrize(
    "argv, why",
    [
        (("--limit", "0"), b"limit must be a positive integer"),
        (("--limit", "10", "--step-cap", "0"), b"step_cap must be a positive integer"),
        (("--limit", "abc"), b"invalid int value: 'abc'"),
        (("--threads", "2"), b"unrecognized arguments"),
        (("--limit", str(10**20)), b"limit must be at most 2^63 - 1"),
        (("--limit", "10", "--step-cap", str(10**20)), b"step_cap must be at most 2^63 - 1"),
    ],
)
def test_bad_input_exits_3_with_one_message(argv, why):
    done = scan(*argv)
    assert done.returncode == INPUT_ERROR
    said = done.stdout + done.stderr
    assert why in said and b"Traceback" not in said


def test_the_status_is_the_verdict():
    assert verify_range_collatz(1000).status == PASS
    rep = verify_range_collatz(30, step_cap=3)
    assert rep.status == INCONCLUSIVE and not rep.ok and not rep.verified
