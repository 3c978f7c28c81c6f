"""The closed-form descent check against its loop oracles."""

from __future__ import annotations

import dataclasses
import json

import pytest
from descent_oracle import descent_chunked, descent_oracle

from collatzlab import descent_check
from collatzlab.cli import PASS, main

LIMITS = [5, 6, 7, 8, 9, 10, 11, 12, 100, 1001, 10**4 + 3, 10**6]

# the largest limit whose 3n + 1 fits int64, where the old int64 loop stopped
MAX_INT64_LIMIT = (2**63 - 2) // 3


def agrees(check, limit: int) -> bool:
    rep = check(limit)
    return (rep.limit, rep.checked, rep.counterexamples) == (limit, *descent_oracle(limit))


@pytest.mark.parametrize("limit", LIMITS)
def test_closed_form_equals_the_scalar_oracle(limit):
    assert agrees(descent_check, limit) and descent_check(limit).ok


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
@pytest.mark.parametrize("limit", [5, 6, 8, 9, 10, 100, 1001, 10**4 + 3])
def test_report_equals_the_oracle(chunk, limit):
    # the int64 loop that the closed form replaced, split into uneven chunks
    rep = descent_check(limit)
    assert (rep.checked, rep.counterexamples) == descent_chunked(limit, chunk) == descent_oracle(limit)


# (limit - 1) // 4 is the same count as (limit - 5) // 4 + 1 for every limit,
# so the mutants are the off-by-one counts around it
@pytest.mark.parametrize(
    "count",
    [lambda limit: (limit - 5) // 4, lambda limit: (limit - 1) // 4 + 1, lambda limit: limit // 4],
    ids=["(limit-5)//4", "(limit-1)//4+1", "limit//4"],
)
def test_an_off_by_one_count_fails_against_the_oracle(count):
    def mutant(limit):
        return dataclasses.replace(descent_check(limit), checked=count(limit))

    assert not all(agrees(mutant, limit) for limit in LIMITS)


@pytest.mark.parametrize("limit", [4, 0, -3])
def test_tiny_limits_raise_as_the_oracle(limit):
    for check in (descent_check, descent_oracle):
        with pytest.raises(ValueError, match="limit must be >= 5"):
            check(limit)


def test_a_limit_past_int64_verifies(capsys):
    rep = descent_check(2**70)
    assert rep.ok and rep.checked == (2**70 - 5) // 4 + 1 and rep.counterexamples == ()
    limit = MAX_INT64_LIMIT + 1
    code = main(["verify", "collatz", "--suite", "descent", "--window", str(limit)])
    out = json.loads(capsys.readouterr().out)
    assert code == PASS and out["exitCode"] == PASS
    assert (out["limit"], out["checked"], out["counterexamples"]) == (limit, (limit - 5) // 4 + 1, [])
