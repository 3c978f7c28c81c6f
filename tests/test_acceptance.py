"""Acceptance gate: ten exhaustive finite checks, one printed verdict line each.

Every criterion states its scale and tolerance inline; all numeric checks are
exact (integer or rational) with zero tolerance unless a runtime budget is the
stated limit.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

from collatzlab import (
    BasisWindow,
    Unrelated,
    build_T,
    build_branch_ops,
    build_section_ops,
    ck_for_section,
    classes,
    collatz,
    cuntz_krieger_condition,
    descent_check,
    equivalent,
    identity_map,
    mersenne,
    norm_bound_check,
    preset_section,
    qx1,
    residue_image,
    separating_condition,
    span_vs_class,
    three_x_d,
    verify_range_collatz,
    verify_section_relations,
)
from collatzlab.operators import compare_certified


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_range_verification():
    """Every n <= 10^7 reaches 1 under the 3x+1 map, in under 60 s."""
    rep = verify_range_collatz(10**7)
    ok = rep.verified and rep.seconds < 60.0
    _verdict(
        1,
        ok,
        f"all n <= 10^7 reach 1: verified={rep.verified}, "
        f"{rep.seconds:.1f}s (budget 60s), max steps to drop {rep.max_steps_to_drop}",
    )


def test_criterion_2_first_return_injectivity_and_witnesses():
    """P|N2 injective on the section up to 10^6; P(N1)=N2 symbolically; all
    witness bullets mod 18 exhaustive, including minimality."""
    sec = preset_section("collatz")
    limit = 10**6

    symbolic = residue_image(sec.map, sec.n1).same_set(sec.n2)

    # exhaustive witness bullets mod 18: 4n for 1,4,13; 8n for 5; 16n for 7,16; 2n for 11,17
    expected = {1: 2, 4: 2, 13: 2, 5: 3, 7: 4, 16: 4, 11: 1, 17: 1}
    witness_ok = sec.witnesses.modulus == 18 and sec.witnesses.exponents == expected
    n2r = {4, 16}
    sigma_r = {1, 5, 7, 11, 13, 17, 4, 16}
    for r, kappa in expected.items():
        witness_ok &= (r * 2**kappa) % 18 in n2r
        for j in range(1, kappa):  # minimality: earlier doublings stay outside the section
            witness_ok &= (r * 2**j) % 18 not in sigma_r

    # P|N2 injectivity with zero collisions on (N1 ∪ N2) ∩ [1, 10^6]
    seen: dict[int, int] = {}
    collisions = 0
    count = 0
    for m in sec.n2.members(1, limit):
        count += 1
        v = m
        while True:  # halve until the first return to the section
            v >>= 1
            if (v & 1 and v % 6 in (1, 5)) or v % 18 in (4, 16):
                break
        if v in seen:
            collisions += 1
        seen[v] = m

    ok = symbolic and witness_ok and collisions == 0
    _verdict(
        2,
        ok,
        f"P(N1)=N2 symbolic={symbolic}, witness bullets mod 18 ok={witness_ok}, "
        f"P|N2 collisions={collisions} over {count} members <= 10^6",
    )


def test_criterion_3_operator_relation_battery():
    """The full S/T relation battery on (N1 ∪ N2) ∩ [1, 10^4], exact integers."""
    sec = preset_section("collatz")
    win = BasisWindow.section(sec.sigma, 10**4)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 10**5)
    rep = verify_section_relations(ops)
    nonvacuous = all(c.columns_checked > 0 for c in rep.checks)
    ok = rep.ok and nonvacuous and not ops.inconclusive_columns
    worst = min(c.columns_checked for c in rep.checks)
    _verdict(
        3,
        ok,
        f"{len(rep.checks)} identities exact on window of {len(win)} "
        f"(>= {worst} certified columns each), failures={[c.name for c in rep.failures()]}",
    )


def test_criterion_4_span_class_correspondence():
    """reachable_span ⊆ class for starts 1..1000 on window [1, 10^5], equality
    on the certified sub-window; zero violations."""
    rep = span_vs_class(
        collatz(), BasisWindow.range(1, 10**5), fuel=10**4, starts=range(1, 1001)
    )
    bad = [e.start for e in rep.entries if not (e.span_subset_of_class and e.span_equals_certified)]
    _verdict(4, not bad, f"1000 starts on window 10^5, violations={bad[:5]}")


def test_criterion_5_descent():
    """(3n+1)/4 < n for every odd n ≡ 1 (mod 4) with 1 < n <= 10^6; T2²T1e1 = e1."""
    rep = descent_check(10**6)
    _verdict(
        5,
        rep.ok,
        f"{rep.checked} values checked, counterexamples={list(rep.counterexamples[:5])}, "
        f"fixed vector T2^2 T1 e1 = e1: {rep.fixed_vector_ok}",
    )


def test_criterion_6_separating_tuples():
    """Separating-condition words match exactly for all stated presets."""
    cases = [
        ("collatz@1", collatz(), 1, (1, 2, 2)),
        ("qx1:5@1", qx1(5), 1, (1, 2, 1, 2, 2, 2, 2)),
        ("mersenne:3@1", mersenne(3), 1, (1, 2, 2, 2)),
        ("mersenne:4@1", mersenne(4), 1, (1, 2, 2, 2, 2)),
        ("mersenne:5@1", mersenne(5), 1, (1, 2, 2, 2, 2, 2)),
        ("3xd:1@1", three_x_d(1), 1, (1, 2, 2)),
        ("3xd:3@3", three_x_d(3), 3, (1, 2, 2)),
        ("3xd:5@5", three_x_d(5), 5, (1, 2, 2)),
        ("3xd:9@9", three_x_d(9), 9, (1, 2, 2)),
    ]
    failures = []
    for name, gcmap, x, expected in cases:
        res = separating_condition(gcmap, x, 1000)
        if not (res.holds and tuple(res.word) == expected and res.aperiodic):
            failures.append(name)
    _verdict(6, not failures, f"{len(cases)} preset words exact and aperiodic, failures={failures}")


def test_criterion_7_modular_identities():
    """All Mersenne congruences for k in {3,4,5,6} plus the q=5 group facts, < 5 s."""
    from collatzlab import verify_mersenne_identities, verify_q5_group

    t0 = time.perf_counter()
    reps = [verify_mersenne_identities(k) for k in (3, 4, 5, 6)]
    q5 = verify_q5_group()
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in reps) and q5.ok and dt < 5.0
    _verdict(7, ok, f"k in 3..6 and q=5 group: all exact, {dt:.2f}s (budget 5s)")


def test_criterion_8_cuntz_krieger_matrices():
    """A = [[0,1],[1,1]] for every preset section; odd/even partition CK fails
    with a witness."""
    refs = ["collatz", "qx1:5", "mersenne:3", "mersenne:4", "mersenne:5",
            "3xd:1", "3xd:3", "3xd:5", "3xd:9"]
    failures = []
    for ref in refs:
        sec = preset_section(ref)
        rep = ck_for_section(
            sec.map, sec.n1, sec.n2, sec.witnesses, 2000, 10**5, removed=sec.n2_removed
        )
        if not (rep.passed and rep.matrix.as_lists() == [[0, 1], [1, 1]]):
            failures.append(ref)
    ok_part, detail = cuntz_krieger_condition(collatz())
    negative = (not ok_part) and detail.witness == 2
    _verdict(
        8,
        not failures and negative,
        f"{len(refs)} sections give A=[[0,1],[1,1]] (failures={failures}); "
        f"odd/even partition correctly fails with witness {getattr(detail, 'witness', None)}",
    )


def test_criterion_9_negative_controls():
    """f5 keeps 1 and 13 in disjoint cycles; the identity map never merges."""
    v = equivalent(qx1(5), 1, 13, 10**4)
    split = isinstance(v, Unrelated) and set(v.cycle_x).isdisjoint(v.cycle_y)
    rep = classes(identity_map(), 1000, 10)
    sizes = sorted((len(v) for v in rep.classes().values()), reverse=True)
    singletons = rep.num_classes == 1000 and sizes == [1] * 1000
    _verdict(
        9,
        split and singletons,
        f"f5: 1 vs 13 Unrelated with disjoint cycles ({split}); "
        f"identity map: 1000 singleton classes ({singletons})",
    )


def test_criterion_10_property_suite():
    """10^4 randomized round trips, adjoint involution, sum of branch
    operators, and the exact extremal norm ratio."""
    m = collatz()
    rng = random.Random(0)
    round_trips = 0
    for _ in range(10**4):
        n = rng.randint(1, 10**9)
        v = m.apply(n)
        if n in m.preimage(v) and all(m.apply(p) == n for p in m.preimage(n)):
            round_trips += 1

    w = BasisWindow.range(1, 400)
    t = build_T(m, w)
    t1, t2 = build_branch_ops(m, w)
    involution = t.adjoint().adjoint() == t and t1.adjoint().adjoint() == t1
    sums = compare_certified("T1+T2=T", t1 + t2, t).holds

    nb = norm_bound_check(m, w, trials=500)
    out = Counter()  # T(e5 + e32), read off the two columns
    cols = t.cols
    for n in (5, 32):
        out.update(cols[n])
    extremal = Fraction(sum(x * x for x in out.values()), 2)
    norm_ok = nb.ok and nb.k == 2 and extremal == 2

    ok = round_trips == 10**4 and involution and sums and norm_ok
    _verdict(
        10,
        ok,
        f"round trips {round_trips}/10000, adjoint involution={involution}, "
        f"T1+T2=T={sums}, norm ratio <= 2 with e5+e32 ratio exactly {extremal}",
    )
