"""Acceptance suite: the ten headline checks, one per test.

Each test prints a single [AC-xx] PASS line once its assertions hold, so a
`pytest -v -s tests/test_acceptance.py` run doubles as a checklist. Budgets
(60 s per solver call) are enforced through SolverConfig timeouts; every
numeric comparison is exact integer equality.
"""

import random
from itertools import combinations

import pytest

from kneserdom import (
    InvariantKind,
    KneserParams,
    SolveStatus,
    SolverConfig,
    TABLE3_PACKINGS,
    diagonal_lift,
    disjoint_clique,
    doubling_lift,
    gamma_kt_boundary,
    normalize_packing,
    rho3_witness,
    rho4_witness,
    solve_domination,
    solve_rho2,
    table3_packing,
    threshold_predictions,
    verify,
    verify_2_packing,
)

from helpers import (
    block_packing,
    brute_force_domination,
    pairwise_intersections,
    perturb_packing,
)

KD = InvariantKind.K_DOMINATION
KT = InvariantKind.K_TUPLE
KTT = InvariantKind.K_TUPLE_TOTAL

BUDGET = SolverConfig(timeout=60.0)


def _passed(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS - {detail}")


def _dom(n, r, kind, k):
    return solve_domination(KneserParams(n, r), kind, k, BUDGET)


def test_ac01_table1_reproduction():
    """gamma_2 / gamma_x2 / gamma_x2t of K(n,2) for n = 4..9."""
    expected = {
        4: (6, 6, None),
        5: (4, 6, 8),
        6: (5, 6, 6),
        7: (5, 5, 5),
        8: (4, 4, 4),
        9: (4, 4, 4),
    }
    for n, (g2, gx2, gx2t) in expected.items():
        assert _dom(n, 2, KD, 2).value == g2, f"gamma_2(K({n},2))"
        assert _dom(n, 2, KT, 2).value == gx2, f"gamma_x2(K({n},2))"
        res = _dom(n, 2, KTT, 2)
        if gx2t is None:
            assert res.status is SolveStatus.UNDEFINED, f"gamma_x2t(K({n},2))"
        else:
            assert res.value == gx2t, f"gamma_x2t(K({n},2))"
    _passed("AC-01", "18 table cells for K(4..9, 2) match, incl. one undefined")


def test_ac02_recorded_packings_verify():
    """The five embedded packings of K(3r-3, r) are valid 2-packings."""
    for r in (4, 5, 6, 7, 8):
        family = table3_packing(r)
        assert verify_2_packing(family).valid, f"r={r}"
        for u, v in combinations(family.members, 2):
            assert 1 <= (u.mask & v.mask).bit_count() <= 2, f"r={r}"
    _passed("AC-02", "five recorded packings valid, intersections within [1,2]")


def test_ac03_rho2_endpoints():
    """rho2(K(24,9)) = 4 and rho2(K(27,10)) = 3, both Optimal in budget."""
    res9 = solve_rho2(KneserParams(24, 9), BUDGET)
    assert res9.status is SolveStatus.OPTIMAL and res9.value == 4
    assert verify_2_packing(res9.witness).valid
    res10 = solve_rho2(KneserParams(27, 10), BUDGET)
    assert res10.status is SolveStatus.OPTIMAL and res10.value == 3
    assert verify_2_packing(res10.witness).valid
    _passed("AC-03", "rho2(24,9)=4 and rho2(27,10)=3 closed as Optimal")


def test_ac04_odd_graph_and_doubling():
    """rho2(K(7,3)) = 7 by search; lifting the optimum gives 14 in K(11,5)."""
    res = solve_rho2(KneserParams(7, 3), SolverConfig(timeout=10.0))
    assert res.status is SolveStatus.OPTIMAL and res.value == 7
    assert verify_2_packing(res.witness).valid
    lifted = doubling_lift(res.witness, 2)
    assert lifted.params == KneserParams(11, 5)
    assert len(lifted) == 14
    assert verify_2_packing(lifted).valid
    _passed("AC-04", "rho2(7,3)=7 and a verified size-14 packing of K(11,5)")


def test_ac05_construction_matrix():
    """Every construction over the published grid passes its verifier."""
    checked = 0
    for k in (1, 2, 3):
        for r in (2, 3):
            D = disjoint_clique(k, r, r * (k + r))
            assert verify(D, KTT, k).valid, (k, r)
            checked += 1
    for k in (2, 3):
        for r in (2, 3):
            D = gamma_kt_boundary(k, r)
            assert verify(D, KTT, k).valid, (k, r)
            checked += 1
    for r in range(3, 13):
        for t in range(2, r):
            S = rho3_witness(r, t)
            assert verify_2_packing(S).valid, (r, t)
            checked += 1
    for r, t in ((9, 3), (14, 4), (18, 5)):
        S = rho4_witness(r, t)
        assert verify_2_packing(S).valid, (r, t)
        checked += 1
    odd_optimum = solve_rho2(KneserParams(7, 3), BUDGET).witness
    for base in [table3_packing(r) for r in (4, 5, 6, 7, 8)] + [odd_optimum]:
        assert verify_2_packing(diagonal_lift(base)).valid
        checked += 1
    for a in (2, 3):
        assert verify_2_packing(doubling_lift(odd_optimum, a)).valid
        checked += 1
    _passed("AC-05", f"{checked} construction/verifier pairs all valid")


def test_ac06_clique_regime_desk_check():
    """gamma_2(7,2)=5, gamma_2(8,2)=4, and optimality at n=8 forces cliques."""
    assert _dom(7, 2, KD, 2).value == 5  # = k+r+1
    res = _dom(8, 2, KD, 2)
    assert res.value == 4  # = k+r
    for u, v in combinations(res.witness.members, 2):
        assert (u.mask & v.mask).bit_count() == 0
    # independent exhaustive check: every valid size-4 family is a clique
    masks = list(KneserParams(8, 2).vertex_masks())
    found = 0
    for combo in combinations(range(len(masks)), 4):
        chosen = [masks[i] for i in combo]
        ok = all(
            sum(1 for m in chosen if m & u == 0) >= 2
            for i, u in enumerate(masks)
            if i not in combo
        )
        if ok:
            found += 1
            for a, b in combinations(chosen, 2):
                assert a & b == 0, "non-clique optimal witness exists"
    assert found > 0
    _passed(
        "AC-06",
        f"boundary values match and all {found} optimal families at n=8 are cliques",
    )


def test_ac07_oracle_equivalence():
    """Branch-and-bound equals the brute-force oracle on 30 small instances."""
    compared = 0
    for n in (4, 5, 6, 7, 8):
        for kind in (KD, KT, KTT):
            for k in (1, 2):
                params = KneserParams(n, 2)
                oracle = brute_force_domination(params, kind, k)
                fast = solve_domination(params, kind, k, BUDGET)
                assert oracle.status == fast.status, (n, kind, k)
                assert oracle.value == fast.value, (n, kind, k)
                compared += 1
    assert compared == 30
    _passed("AC-07", "30 oracle comparisons across all kinds, k in {1,2}")


def test_ac08_chain_and_monotonicity():
    """gamma_k <= gamma_xk <= gamma_xkt; witness lifting; non-monotone dip."""
    # invariant chain on every instance where all three are defined
    for n in (5, 6, 7, 8):
        values = [_dom(n, 2, kind, 2).value for kind in (KD, KT, KTT)]
        assert values[0] <= values[1] <= values[2], n
    # gamma_xkt witnesses stay valid one ground element up (n >= 2r+1)
    for n in (5, 6, 7, 8):
        witness = _dom(n, 2, KTT, 2).witness
        lifted = KneserParams(n + 1, 2)
        relabeled = type(witness)(lifted, witness.members)
        assert verify(relabeled, KTT, 2).valid, n
    # gamma_k witnesses stay valid one ground element up for n >= 2(k+r)
    for n in (8, 9):
        witness = _dom(n, 2, KD, 2).witness
        relabeled = type(witness)(KneserParams(n + 1, 2), witness.members)
        assert verify(relabeled, KD, 2).valid, n
    # the published non-monotone pattern of gamma_2 on K(n,2)
    g = {n: _dom(n, 2, KD, 2).value for n in (5, 6, 7, 8)}
    assert g[5] < g[6]
    assert g[7] > g[8]
    _passed("AC-08", "chain, witness lifting, and the gamma_2 dip all hold")


def test_ac09_normalization_corpus():
    """Seeded perturbed packings, and block packings with one element held
    by 3, 4 or 5 members, renormalize to occurrences <= 2."""
    corpus = [
        (6, 3, 4, 1), (7, 3, 4, 2), (8, 3, 4, 1), (9, 4, 4, 3),
        (8, 3, 5, 1), (12, 4, 5, 2), (16, 5, 5, 3),
    ]
    messy = [perturb_packing(block_packing(r, t, size), random.Random(seed),
                             rounds)
             for seed, (r, t, size, rounds) in enumerate(corpus, start=900)]
    held = [(6, 3, 4, 3), (9, 4, 4, 4), (8, 3, 5, 3), (16, 5, 5, 4),
            (29, 8, 5, 4), (28, 8, 5, 5)]
    messy += [block_packing(r, t, size, c) for r, t, size, c in held]
    for S in messy:
        out = normalize_packing(S)
        assert max(out.occurrences) <= 2, S.params
        assert len(out) == len(S), S.params
        assert pairwise_intersections(out) == pairwise_intersections(S)
        assert verify_2_packing(out).valid
    _passed("AC-09", f"{len(messy)} packings normalized correctly")


def test_ac10_threshold_consistency():
    """Predictions match the solver where it closes."""
    # wherever a prediction exists for r <= 12, the solver must agree
    agreed = 0
    for r in range(3, 13):
        for t in range(2, r):
            predicted = threshold_predictions(r, t)
            if predicted is None:
                continue
            res = solve_rho2(KneserParams(3 * r - t, r), BUDGET)
            assert res.status is SolveStatus.OPTIMAL, (r, t)
            assert res.value == predicted, (r, t)
            agreed += 1
    assert agreed > 0
    # one searched instance with no prediction, for contrast
    assert threshold_predictions(4, 3) is None
    assert solve_rho2(KneserParams(9, 4), BUDGET).value == 12
    _passed("AC-10", f"{agreed} predicted instances closed Optimal")
