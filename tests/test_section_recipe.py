"""The section rule on every qx+1 map: the condition on q, a differential
oracle of the hand-written sections it replaced, and the CLI on the new q."""

from __future__ import annotations

import json

import pytest

from collatzlab import (
    ResidueSet,
    WitnessTable,
    derive_witnesses,
    preset_section,
    qx1,
    residue_image_exceptions,
    section_of,
)
from collatzlab.cli import INPUT_ERROR, INCONCLUSIVE, PASS, VIOLATION, main


def _order(a: int, m: int) -> int:
    k, v = 1, a % m
    while v != 1:
        v = v * a % m
        k += 1
    return k


# --- the condition on q --------------------------------------------------------


def test_section_builds_iff_order_of_2_lifts():
    # built exactly when ord_{q^2}(2) = q * ord_q(2); the Wieferich primes
    # 1093 and 3511 fail too, but take too long for this tier
    built, failed = [], []
    for q in range(3, 102, 2):
        lifts = _order(2, q * q) == q * _order(2, q)
        try:
            section_of(qx1(q))
        except KeyError:
            failed.append(q)
            assert not lifts, q
        else:
            built.append(q)
            assert lifts, q
    assert failed == [21, 39, 55, 57]
    assert len(built) == 46


def test_no_section_is_one_key_error():
    for ref in ("identity", "qx1:21", "not-a-map.json"):
        with pytest.raises(KeyError, match=f"no first-return section preset for '{ref}'"):
            preset_section(ref)


# --- differential oracle: the hand-written sections the recipe replaced -------------

#: minimal doubling exponents per section residue mod 18 for the 3x+1 section;
#: 4n for n ≡ 1,4,13, 8n for n ≡ 5, 16n for n ≡ 7,16, 2n for n ≡ 11,17.
COLLATZ_WITNESSES = WitnessTable(18, {1: 2, 4: 2, 13: 2, 5: 3, 7: 4, 16: 4, 11: 1, 17: 1})


def _mersenne_n1(k: int) -> ResidueSet:
    """The odd classes n (mod 2q^2), q = 2^k - 1, with 2n a power of 2."""
    m = 2 * (2**k - 1) ** 2
    powers = {pow(2, j, m) for j in range(1, m)}
    return ResidueSet.of(m, [r for r in range(1, m, 2) if 2 * r % m in powers])


def _oracle(ref: str):
    """(N1, N2, n2_removed, witnesses) as the hand-written constructors gave them."""
    if ref == "collatz":
        return ResidueSet.of(6, [1, 5]), ResidueSet.of(18, [4, 16]), (), COLLATZ_WITNESSES
    if ref == "qx1:5":
        n1 = ResidueSet.of(10, [1, 3, 7, 9])
        n2 = ResidueSet.of(50, [6, 16, 36, 46])
        return n1, n2, (), derive_witnesses(n1, n2)
    k = int(ref.partition(":")[2])
    n1 = _mersenne_n1(k)
    n2, removed = residue_image_exceptions(qx1(2**k - 1), n1)
    return n1, n2, removed, derive_witnesses(n1, n2)


def _same_exponents(a: WitnessTable, b: WitnessTable) -> bool:
    """Equal minimal exponents on every section class, whatever the two moduli."""
    big, small = (a, b) if a.modulus % b.modulus == 0 else (b, a)
    assert big.modulus % small.modulus == 0, (a.modulus, b.modulus)
    folded = {r % small.modulus for r in big.exponents}
    return folded == set(small.exponents) and all(
        small.exponents[r % small.modulus] == kappa for r, kappa in big.exponents.items()
    )


@pytest.mark.parametrize("ref", ["collatz", "qx1:5"] + [f"mersenne:{k}" for k in range(3, 9)])
def test_recipe_matches_hand_written_section(ref):
    n1, n2, removed, witnesses = _oracle(ref)
    sec = preset_section(ref)
    assert sec.n1.same_set(n1)
    assert sec.n2.same_set(n2)
    assert sec.n2_removed == frozenset(removed) == frozenset()
    assert _same_exponents(sec.witnesses, witnesses)


def test_n1_sits_at_its_smallest_modulus():
    assert preset_section("collatz").n1.modulus == 6
    assert preset_section("qx1:5").n1.modulus == 10
    for k in range(3, 9):  # the Mersenne rule folds from 2q^2 to 2q
        assert preset_section(f"mersenne:{k}").n1.modulus == 2 * (2**k - 1)


@pytest.mark.parametrize("ref", ["mersenne:2", "qx1:3"])
def test_q3_refs_give_the_collatz_section(ref):
    sec, want = preset_section(ref), preset_section("collatz")
    assert sec.map == want.map
    assert sec.n1.same_set(want.n1) and sec.n2.same_set(want.n2)
    assert sec.witnesses == want.witnesses


# --- the CLI on the new q ----------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("q", [7, 9, 11, 13])
def test_cli_ck_and_relations_on_new_q(capsys, q):
    opts = ("--window", "3000", "--fuel", "100000")
    code, rep = run(capsys, "verify", f"qx1:{q}", "--suite", "ck", *opts)
    assert code == PASS and rep["level"] == "section"
    assert rep["matrix"] == [[0, 1], [1, 1]] and rep["verdict_kind"] == "witnessed"
    code, rep = run(capsys, "verify", f"qx1:{q}", "--suite", "relations", *opts)
    assert code == PASS and rep["section"]["ok"] and not rep["inconclusiveColumns"]


@pytest.mark.parametrize("q, want", [(7, PASS), (9, INCONCLUSIVE), (11, INCONCLUSIVE), (13, INCONCLUSIVE)])
def test_cli_section_on_new_q(capsys, q, want):
    code, rep = run(capsys, "verify", f"qx1:{q}", "--suite", "section", "--window", "300")
    assert code == want and rep["sufficient"]["passed"]


def test_cli_negative_control_q21(capsys):
    code, rep = run(capsys, "verify", "qx1:21", "--suite", "ck", "--window", "3000", "--fuel", "100000")
    assert code == VIOLATION and rep["level"] == "partition" and not rep["passed"]
    code, rep = run(capsys, "verify", "qx1:21", "--suite", "section", "--window", "300")
    assert code == INPUT_ERROR
    assert rep["error"] == (
        "no first-return section for 'qx1:21': the order of 2 does not lift: "
        "ord(2 mod 441) = 42, not 21 * ord(2 mod 21) = 126"
    )


def test_cli_identity_section_message_names_the_shape(capsys):
    code, rep = run(capsys, "verify", "identity", "--suite", "section")
    assert code == INPUT_ERROR
    assert rep["error"] == "no first-return section for 'identity': odd and even n share residues mod 1"
