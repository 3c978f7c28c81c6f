"""The int64 descent check against its scalar oracle."""

from __future__ import annotations

import json

import pytest
from descent_oracle import descent_oracle

from collatzlab import descent_check, operators
from collatzlab.cli import INPUT_ERROR, main

# the largest limit whose 3n + 1 fits int64
MAX_LIMIT = (2**63 - 2) // 3


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
@pytest.mark.parametrize("limit", [5, 6, 8, 9, 10, 100, 1001, 10**4 + 3])
def test_report_equals_the_oracle(monkeypatch, chunk, limit):
    monkeypatch.setattr(operators, "_DESCENT_CHUNK", chunk)
    rep = descent_check(limit)
    assert (rep.limit, rep.checked, rep.counterexamples) == (limit, *descent_oracle(limit))
    assert rep.fixed_vector_ok and rep.ok


@pytest.mark.parametrize("limit", [4, 0, -3])
def test_tiny_limits_raise_as_the_oracle(limit):
    for check in (descent_check, descent_oracle):
        with pytest.raises(ValueError, match="limit must be >= 5"):
            check(limit)


def test_a_limit_past_int64_is_an_input_error(capsys):
    with pytest.raises(ValueError, match="3n \\+ 1 leaves int64"):
        descent_check(MAX_LIMIT + 1)
    code = main(["verify", "collatz", "--suite", "descent", "--window", str(MAX_LIMIT + 1)])
    assert code == INPUT_ERROR and "3n + 1 leaves int64" in json.loads(capsys.readouterr().out)["error"]
    assert 3 * MAX_LIMIT + 1 == 2**63 - 1
