"""Golden replay: every preset-sweep request of the benchmark gives the same
exit code and the same stdout bytes as when ``bench/golden.json`` was recorded."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from collatzlab.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def test_preset_sweep_replays_byte_identical():
    requests = json.loads(GOLDEN.read_text())["preset-sweep"]["requests"]
    assert len(requests) == 387
    mismatches = []
    for key, want in sorted(requests.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(key.split(" "))
        out = buf.getvalue().encode()
        got = [code, hashlib.sha256(out).hexdigest(), len(out)]
        if got != want:
            mismatches.append((key, got[0], got[2], want[0], want[2]))
    assert not mismatches, mismatches[:10]
