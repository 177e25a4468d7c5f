"""Tests for the exact solvers, checked against the brute-force oracle."""

import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import combinations
from math import comb, floor
from pathlib import Path

import pytest

import kneserdom
from kneserdom import (
    CapacityError,
    InternalCheckError,
    InvariantKind,
    KneserParams,
    ParameterError,
    SolveResult,
    SolveStatus,
    SolverConfig,
    TABLE3_PACKINGS,
    VerificationReport,
    VertexFamily,
    disjoint_clique,
    rho3_witness,
    solve_domination,
    solve_rho2,
    table3_packing,
    threshold_predictions,
    verify,
    verify_2_packing,
)
from kneserdom.certify import check_delsarte_dual, packing_intersections
from kneserdom.solve import delsarte_lp

from helpers import (
    bron_kerbosch_rho2,
    brute_force_domination,
    reference_delsarte_lp,
    reference_shrink,
    vertices,
)

KD = InvariantKind.K_DOMINATION
KT = InvariantKind.K_TUPLE
KTT = InvariantKind.K_TUPLE_TOTAL


def dom(n, r, kind, k, **cfg_kwargs):
    return solve_domination(KneserParams(n, r), kind, k, SolverConfig(**cfg_kwargs))


class TestThresholds:
    def test_known_values(self):
        assert threshold_predictions(10, 3) == 3
        assert threshold_predictions(9, 3) == 4
        assert threshold_predictions(5, 3) is None
        assert threshold_predictions(14, 4) == 4
        assert threshold_predictions(15, 4) == 3

    def test_boundaries_exact(self):
        # 5t = r+5 still predicts 3; 9t = 2r+9 still predicts 4
        assert threshold_predictions(10, 3) == 3
        assert threshold_predictions(11, 3) == 3
        assert threshold_predictions(9, 3) == 4
        assert threshold_predictions(18, 5) == 4

    def test_range_guard(self):
        with pytest.raises(ParameterError):
            threshold_predictions(5, 1)
        with pytest.raises(ParameterError):
            threshold_predictions(5, 5)


class TestPetersen:
    """All four invariants of K(5,2) against their published values."""

    def test_domination(self):
        assert dom(5, 2, KD, 1).value == 3

    def test_2_domination(self):
        assert dom(5, 2, KD, 2).value == 4

    def test_2_tuple(self):
        assert dom(5, 2, KT, 2).value == 6

    def test_2_tuple_total(self):
        assert dom(5, 2, KTT, 2).value == 8


# gamma_2, gamma_x2, gamma_x2t of K(n,2) for n = 4..9; None = undefined
TABLE1_K2 = {
    4: (6, 6, None),
    5: (4, 6, 8),
    6: (5, 6, 6),
    7: (5, 5, 5),
    8: (4, 4, 4),
    9: (4, 4, 4),
}


class TestTable1:
    @pytest.mark.parametrize("n", sorted(TABLE1_K2))
    def test_row(self, n):
        g2, gx2, gx2t = TABLE1_K2[n]
        assert dom(n, 2, KD, 2).value == g2
        assert dom(n, 2, KT, 2).value == gx2
        res = dom(n, 2, KTT, 2)
        if gx2t is None:
            assert res.status is SolveStatus.UNDEFINED
            assert res.value is None
        else:
            assert res.value == gx2t

    def test_results_carry_valid_witnesses(self):
        res = dom(6, 2, KT, 2)
        assert res.optimal
        assert res.lower_bound == res.upper_bound == res.value
        assert verify(res.witness, KT, 2).valid
        assert len(res.witness) == res.value


class TestAsymptoticRegime:
    @pytest.mark.parametrize(
        "k,r,n", [(2, 2, 8), (2, 2, 9), (3, 2, 10), (2, 3, 15)]
    )
    def test_clique_regime_value(self, k, r, n, monkeypatch):
        # n >= r(k+r): all three invariants equal k+r, closed by the theorem
        # bound and the clique before any graph is built
        assert n >= r * (k + r)

        def no_graph(masks, contains, sizes, deadline=None):
            raise AssertionError("graph built in the forced-clique regime")

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", no_graph)
        for kind in (KD, KT, KTT):
            res = dom(n, r, kind, k)
            assert res.value == k + r, (kind, res.value)
            assert res.optimal
            assert res.nodes == 0

    def test_clique_witness_shape(self):
        res = dom(10, 2, KTT, 3)
        members = res.witness.members
        assert len(members) == 5
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert (u.mask & v.mask).bit_count() == 0

    @pytest.mark.parametrize("k,r", [(2, 2), (3, 2)])
    def test_boundary_value(self, k, r):
        # n = r(k+r)-1: the k-tuple total number rises to k+r+1
        n = r * (k + r) - 1
        assert dom(n, r, KTT, k).value == k + r + 1

    @pytest.mark.parametrize("k,r", [
        (k, r) for k in range(2, 8) for r in range(2, 7)
        if comb(r * (k + r) - 1, r) <= 5_000_000  # the default ceiling
    ])
    def test_boundary_row_closes_without_search(self, k, r, monkeypatch):
        # n = r(k+r)-1: the theorem bound k+r+1 and gamma_kt_boundary close
        # all three kinds before any graph is built
        def no_graph(masks, contains, sizes, deadline=None):
            raise AssertionError("graph built on the boundary row")

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", no_graph)
        n = r * (k + r) - 1
        for kind in (KD, KT, KTT):
            res = dom(n, r, kind, k)
            assert res.optimal and (res.value, res.nodes) == (k + r + 1, 0)
            assert verify(res.witness, kind, k).valid


class TestOracleAgreement:
    # k = 3 only where the optimum stays inside the oracle's size guard
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in (4, 5, 6, 7) for k in (1, 2)] + [(8, 2), (7, 3)],
    )
    @pytest.mark.parametrize("kind", [KD, KT, KTT])
    def test_small_k2_instances(self, n, kind, k):
        params = KneserParams(n, 2)
        oracle = brute_force_domination(params, kind, k)
        fast = solve_domination(params, kind, k)
        assert oracle.status == fast.status
        assert oracle.value == fast.value
        if oracle.status is SolveStatus.OPTIMAL:
            assert verify(fast.witness, kind, k).valid

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", [KD, KT, KTT])
    def test_complete_graph_instances(self, n, kind):
        # K(n,1) is complete, outside the theorem's r >= 2: gamma_k and
        # gamma_xk are k there, below the bound k+r
        params = KneserParams(n, 1)
        oracle = brute_force_domination(params, kind, 2)
        fast = solve_domination(params, kind, 2)
        assert oracle.status == fast.status
        assert oracle.value == fast.value
        if oracle.status is SolveStatus.OPTIMAL:
            assert verify(fast.witness, kind, 2).valid

    def test_oracle_guard(self):
        with pytest.raises(CapacityError):
            brute_force_domination(KneserParams(10, 2), KD, 1)

    @pytest.mark.parametrize("solve", [
        lambda k: dom(5, 2, KD, k),
        lambda k: brute_force_domination(KneserParams(5, 2), KD, k),
    ])
    def test_nonpositive_k_rejected(self, solve):
        for k in (0, -1):
            with pytest.raises(ParameterError,
                               match=f"^k must be a positive integer, got {k}$"):
                solve(k)


class TestSolverOptions:
    def test_no_symmetry_same_values(self):
        for kind in (KD, KT, KTT):
            with_sym = dom(6, 2, kind, 2, symmetry_breaking=True)
            without = dom(6, 2, kind, 2, symmetry_breaking=False)
            assert with_sym.value == without.value

    def test_vertex_ceiling_enforced(self, monkeypatch):
        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", "10")
        with pytest.raises(CapacityError):
            dom(9, 2, KD, 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(timeout=0)
        with pytest.raises(ParameterError):
            SolverConfig(timeout=float("nan"))  # would never expire

    def test_rho2_not_accepted(self):
        with pytest.raises(ParameterError):
            solve_domination(KneserParams(5, 2), InvariantKind.TWO_PACKING, 1)


def _family(n, r, sets):
    return VertexFamily.from_sets(KneserParams(n, r), sets)


@pytest.mark.parametrize("call,answer", [
    # every path that enumerates the vertices, or walks their classes as the
    # domination verifier does, stops at the ceiling
    pytest.param(lambda: dom(9, 2, KD, 1), None, id="domination-search"),
    pytest.param(lambda: dom(8, 2, KD, 2), None, id="clique-closure"),
    pytest.param(lambda: solve_rho2(KneserParams(7, 3)), None,
                 id="rho2-search"),
    pytest.param(lambda: solve_rho2(KneserParams(15, 6)), None,
                 id="rho2-recorded-closure"),
    pytest.param(lambda: solve_rho2(KneserParams(6, 3)), None,
                 id="rho2-matching"),
    pytest.param(
        lambda: verify(_family(6, 2, [[1, 2], [3, 4], [5, 6]]), KD, 2),
        None, id="domination-verifier"),
    pytest.param(lambda: brute_force_domination(KneserParams(6, 2), KD, 1),
                 None, id="oracle"),
    # paths that never enumerate answer whatever the ceiling
    pytest.param(lambda: solve_rho2(KneserParams(8, 3)).value, 1,
                 id="rho2-diameter-two"),
    pytest.param(lambda: solve_rho2(KneserParams(24, 9)).value, 4,
                 id="rho2-threshold"),
    pytest.param(
        lambda: verify_2_packing(_family(9, 4, TABLE3_PACKINGS[4])).valid,
        True, id="packing-verifier"),
    pytest.param(lambda: dom(4, 2, KTT, 2).status, SolveStatus.UNDEFINED,
                 id="undefined"),
])
def test_one_ceiling_at_every_entry_point(monkeypatch, call, answer):
    """KNESERDOM_VERTEX_CEILING is the one ceiling, checked wherever the
    vertices of K(n,r) are enumerated and nowhere else."""
    monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", "10")
    if answer is None:
        with pytest.raises(CapacityError, match="exceeding the ceiling of 10"):
            call()
    else:
        assert call() == answer


class TestRho2:
    def test_diameter_two_is_one(self):
        for n, r in [(5, 2), (8, 2), (8, 3), (11, 4)]:
            res = solve_rho2(KneserParams(n, r))
            assert res.value == 1
            assert res.optimal

    def test_disconnected_k42(self):
        # K(4,2) is three disjoint edges: one vertex per component packs
        res = solve_rho2(KneserParams(4, 2))
        assert res.value == 3
        assert verify_2_packing(res.witness).valid

    def test_odd_graph_k73(self):
        res = solve_rho2(KneserParams(7, 3))
        assert res.value == 7
        assert res.optimal
        assert len(res.witness) == 7
        assert verify_2_packing(res.witness).valid

    @pytest.mark.parametrize("r", range(2, 8))
    def test_matching_closes_without_search(self, r, monkeypatch):
        # K(2r,r) is a perfect matching, so rho2 is half its vertices,
        # attained by the r-sets that contain element 1
        def no_graph(masks, contains, sizes, deadline=None):
            raise AssertionError("graph built for a perfect matching")

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", no_graph)
        params = KneserParams(2 * r, r)
        res = solve_rho2(params)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.value, res.nodes) == (comb(2 * r, r) // 2, 0)
        assert all(1 in member.elements for member in res.witness)
        if r <= 3:
            # against a search that shares no code with the closed form
            assert res.value == bron_kerbosch_rho2(params)

    @pytest.mark.parametrize("n,r", [(7, 3), (10, 4)])
    def test_orbit_search_agrees_with_bron_kerbosch(self, n, r):
        # the orbit rule against a search with no symmetry and no shared
        # code: a rule that excludes too much lowers the value found
        params = KneserParams(n, r)
        res = solve_rho2(params)
        assert res.optimal and res.nodes > 0
        assert res.value == bron_kerbosch_rho2(params)

    def test_k94_by_search(self):
        res = solve_rho2(KneserParams(9, 4))
        assert res.value == 12  # matches the recorded packing of K(9,4)
        assert verify_2_packing(res.witness).valid

    def test_threshold_shortcut_value_three(self):
        res = solve_rho2(KneserParams(27, 10))
        assert res.value == 3
        assert res.optimal
        assert res.nodes == 0  # closed by the theorem, not by search
        assert verify_2_packing(res.witness).valid

    def test_threshold_shortcut_value_four(self):
        res = solve_rho2(KneserParams(24, 9))
        assert res.value == 4
        assert res.optimal
        assert res.nodes == 0
        assert verify_2_packing(res.witness).valid

    @pytest.mark.parametrize("n,r,value", [(8, 3, 1), (24, 9, 4), (13, 5, 3)])
    def test_shortcuts_build_no_graph(self, n, r, value, monkeypatch):
        # diameter 2 (K(8,3)) and the threshold ranges close without search
        def no_graph(masks, contains, sizes, deadline=None):
            raise AssertionError("graph built for a forced 2-packing number")

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", no_graph)
        res = solve_rho2(KneserParams(n, r))
        assert res.status is SolveStatus.OPTIMAL
        assert (res.value, res.nodes) == (value, 0)

    @pytest.mark.parametrize("n,r", [(13, 5), (16, 6)])
    def test_threshold_shortcut_agrees_with_the_search(self, n, r,
                                                       monkeypatch):
        # with no prediction the LP floor and the clique search find the
        # value the threshold range forces; Bron-Kerbosch is too slow here
        monkeypatch.setattr(kneserdom.solve, "threshold_predictions",
                            lambda r, t: None)
        res = solve_rho2(KneserParams(n, r))
        assert res.optimal and res.nodes > 0
        assert res.value == 3

    def test_search_agrees_without_symmetry(self):
        a = solve_rho2(KneserParams(9, 4), SolverConfig(symmetry_breaking=True))
        # the plain search takes about 15 s on 2 CPUs; the budget is far
        # above that, so the result does not depend on machine speed
        b = solve_rho2(KneserParams(9, 4),
                       SolverConfig(timeout=1200, symmetry_breaking=False))
        assert a.value == b.value == 12
        # the orbit rule cuts the search with symmetry breaking; without it
        # the nodes are those of the plain search, which the color bound and
        # its infra-chromatic absorptions cut
        assert (a.nodes, b.nodes) == (342, 1_517_590)

    def test_k125_closes_at_12(self):
        """rho2(K(12,5)) = 12, the recorded Table 2 value, proved by search:
        orbital branching up to cliques of four members and the
        infra-chromatic bound keep it to 1,993 nodes."""
        res = solve_rho2(KneserParams(12, 5), SolverConfig(timeout=600))
        assert res.optimal and res.value == 12
        assert res.nodes == 1_993
        assert len(res.witness) == 12
        assert verify_2_packing(res.witness).valid

    @pytest.mark.parametrize("n,r,value", [(7, 3, 7), (10, 4, 5)])
    def test_orbit_rule_keeps_value(self, n, r, value):
        a = solve_rho2(KneserParams(n, r))
        b = solve_rho2(KneserParams(n, r), SolverConfig(symmetry_breaking=False))
        assert a.value == b.value == value


@pytest.mark.parametrize("n,kind,k,nodes", [
    (7, KD, 2, 257),
    (7, KTT, 1, 1_357),
    (8, KTT, 1, 333),
])
def test_orbit_rule_keeps_domination_value(n, kind, k, nodes):
    """Orbital branching at the first free level finds the same optimum as
    the search without symmetry breaking, in the pinned node count: the
    search exhausts the sizes from the counting bound up to value-1, and the
    heuristic's family closes the instance."""
    a = dom(n, 3, kind, k)
    b = dom(n, 3, kind, k, symmetry_breaking=False)
    assert a.value == b.value
    assert a.nodes == nodes


def test_gamma2_k83_closes_at_12():
    """gamma_2(K(8,3)) = 12: the search exhausts the sizes from the
    counting bound 10 up to 11, and the heuristic's family of 12 closes the
    instance. The budget is far above the run time, so the result does not
    depend on machine speed."""
    res = dom(8, 3, KD, 2, timeout=600)
    assert res.optimal and res.value == 12
    assert res.nodes == 65_015
    assert verify(res.witness, KD, 2).valid


def test_gamma2_k93_closes_at_10():
    """gamma_2(K(9,3)) = 10: the search exhausts the sizes from the
    counting bound 8 up to 9, and the heuristic's family of 10 closes the
    instance, under the same budget margin as K(8,3)."""
    res = dom(9, 3, KD, 2, timeout=600)
    assert res.optimal and res.value == 10
    assert res.nodes == 47_761
    assert verify(res.witness, KD, 2).valid


def _search(n, r, kind, k):
    masks = list(KneserParams(n, r).vertex_masks())
    search = kneserdom.solve._DominationSearch(
        masks, kind, k, kneserdom.solve._Deadline(float("inf")))
    search._reset()
    return search


def _state(search):
    return (list(search.cover), search.needy, search.tight, search.total,
            search.chosen)


def _deficits(search):
    return [max(0, search.k - c) for c in search.cover]


class TestSortedGainBound:
    """`_DominationSearch._gain_bound` is at least the deficit that the best
    `remaining` free vertices remove together, found by trying them all, on
    seeded random partial states; `_place` keeps the coverage state equal
    to its definition whatever order members are dropped in."""

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3)])
    @pytest.mark.parametrize("kind,k", [(KD, 2), (KT, 2), (KTT, 1)])
    def test_bound_covers_every_choice(self, n, r, kind, k):
        rng = random.Random(f"{n},{r},{kind.name},{k}")
        search = _search(n, r, kind, k)
        V = search.V
        for _ in range(12):
            search._reset()
            for v in rng.sample(range(V), rng.randrange(5)):
                search._place(v, 1)
            banned = sum(1 << v for v in range(V)
                         if not search.chosen >> v & 1
                         and rng.random() < 0.2)
            free = [v for v in range(V)
                    if not (search.chosen | banned) >> v & 1]
            remaining = rng.randrange(1, 4)
            before = _state(search)
            best = 0
            for combo in combinations(free, remaining):
                for v in combo:
                    search._place(v, 1)
                best = max(best, before[3] - search.total)
                for v in combo:
                    search._place(v, -1)
                assert _state(search) == before
            assert search._gain_bound(remaining, banned) >= best

    @pytest.mark.parametrize("kind,k", [(KD, 2), (KT, 3), (KTT, 1)])
    def test_needy_tracks_deficits(self, kind, k):
        """Members are dropped in random order, as `shrink` drops them, not
        only last chosen first, as `_dfs` does. The inlined gains of
        `_gains` equal `_gain`."""
        rng = random.Random(f"{kind.name},{k}")
        search = _search(7, 3, kind, k)
        V, nbr, credit = search.V, search.nbr, search.credit
        order, out_of_order = [], 0
        for _ in range(200):
            if order and (rng.random() < 0.4 or search.total == 0):
                v = rng.choice(order)
                out_of_order += v != order[-1]
                order.remove(v)
                search._place(v, -1)
            else:
                v = rng.choice([v for v in range(V)
                                if not search.chosen >> v & 1])
                order.append(v)
                search._place(v, 1)
            assert search.chosen == sum(1 << v for v in order)
            cover = [(nbr[u] & search.chosen).bit_count()
                     + (credit if search.chosen >> u & 1 else 0)
                     for u in range(V)]
            assert search.cover == cover
            assert search.needy == sum(1 << u for u in range(V)
                                       if cover[u] < k)
            assert search.tight == sum(1 << u for u in range(V)
                                       if cover[u] <= k)
            assert search.total == sum(max(0, k - c) for c in cover)
            assert search._gains(search.chosen) == [
                0 if search.chosen >> v & 1 else search._gain(v)
                for v in range(V)]
        assert out_of_order > 0

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3)])
    @pytest.mark.parametrize("kind,k", [(KD, 2), (KT, 3), (KTT, 1)])
    def test_scorers_pick_as_max_and_min(self, n, r, kind, k):
        """`_most_gain` and `_least_loss`, which inline `_gain` and `_loss`,
        pick what `max(pool, key=_gain)` and `min(pool, key=_loss)` pick,
        the lowest on a tie, from the pools `shrink` hands them: the free
        helpers of a needy vertex and the members, less the tabu ones
        unless every one is tabu, on seeded random partial states."""
        rng = random.Random(f"scorers,{n},{r},{kind.name},{k}")
        search = _search(n, r, kind, k)
        V = search.V
        ties = all_frozen = 0
        for _ in range(60):
            search._reset()
            for v in rng.sample(range(V), rng.randrange(1, 9)):
                search._place(v, 1)
            p_frozen = rng.choice([0.2, 0.6, 1.0])
            frozen = sum(1 << v for v in range(V) if rng.random() < p_frozen)
            pools = [search.chosen]
            if search.needy:
                u = rng.choice(list(kneserdom.solve._bits(search.needy)))
                pools.append(search.helpers[u] & ~search.chosen)
            for pool, pick, key, best in [
                    (pools[-1], search._most_gain, search._gain, max),
                    (pools[0], search._least_loss, search._loss, min)]:
                if not pool:
                    continue  # every helper is chosen: `shrink` never asks
                members = [v for v in range(V) if pool >> v & 1]
                allowed = ([v for v in members if not frozen >> v & 1]
                           or members)
                all_frozen += pool & ~frozen == 0
                before = _state(search)
                assert pick(pool & ~frozen or pool) == best(allowed, key=key)
                assert _state(search) == before
                scores = [key(v) for v in allowed]
                ties += scores.count(best(scores)) > 1
        assert ties > 0 and all_frozen > 0  # both edge cases were tested


class TestSlackCut:
    """`_DominationSearch._target` cuts (returns None) exactly when choosing
    every free vertex still leaves some vertex a deficit, on seeded random
    partial states. Otherwise it returns the needy vertex of least slack,
    the lowest on a tie, where a vertex's slack is the deficit that the free
    vertices, each chosen alone, would remove from it, minus its deficit."""

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3)])
    @pytest.mark.parametrize("kind,k", [(KD, 2), (KT, 2), (KTT, 1)])
    def test_cuts_exactly_when_every_free_vertex_falls_short(self, n, r,
                                                              kind, k):
        rng = random.Random(f"slack,{n},{r},{kind.name},{k}")
        search = _search(n, r, kind, k)
        V = search.V
        outcomes = set()
        for _ in range(40):
            search._reset()
            for v in rng.sample(range(V), rng.randrange(5)):
                search._place(v, 1)
            if search.total == 0:
                continue  # `_dfs` returns before it asks for a target
            p_ban = rng.choice([0.2, 0.5, 0.8])
            banned = sum(1 << v for v in range(V)
                         if not search.chosen >> v & 1
                         and rng.random() < p_ban)
            free = [v for v in range(V)
                    if not (search.chosen | banned) >> v & 1]
            before = _state(search)
            d = _deficits(search)
            slack = {u: -d[u] for u in range(V) if d[u] > 0}
            for v in free:
                search._place(v, 1)
                after = _deficits(search)
                for u in slack:
                    slack[u] += d[u] - after[u]
                search._place(v, -1)
            for v in free:
                search._place(v, 1)
            falls_short = search.total > 0
            for v in free:
                search._place(v, -1)
            assert _state(search) == before
            target = search._target(banned)
            assert _state(search) == before
            outcomes.add(falls_short)
            if falls_short:
                assert target is None
            else:
                assert target == min(slack, key=lambda u: (slack[u], u))
        assert outcomes == {True, False}  # both sides of the cut were tested


class TestRootBounds:
    """The two root bounds of the domination search: the counting bound
    ceil(k V / max_gain) from below, the seeded local search from above."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("kind", [KD, KT, KTT])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counting_bound_never_exceeds_the_oracle(self, n, kind, k):
        # every instance here is defined; the optimum reaches V = 10 on
        # K(5,2), so the oracle's size guard is raised to V
        params = KneserParams(n, 2)
        oracle = brute_force_domination(params, kind, k,
                                        size_limit=params.vertex_count)
        assert oracle.optimal
        assert _search(n, 2, kind, k).counting_bound() <= oracle.value

    @pytest.mark.parametrize("n,r,kind,k,value", [
        (7, 3, KD, 2, 13),
        (7, 3, KTT, 1, 12),
        (8, 3, KTT, 1, 8),
        (9, 3, KD, 2, 10),
        (16, 3, KTT, 3, None),
    ])
    def test_local_search_is_seeded(self, n, r, kind, k, value):
        """From the greedy family down, `shrink` yields valid families one
        member smaller each, the same on two runs whatever the state of the
        global random generator, and stops at the first size it misses,
        here the value where it is known."""
        params = KneserParams(n, r)
        runs = []
        for seed in (1, 2):
            random.seed(seed)
            search = _search(n, r, kind, k)
            greedy = search.greedy()
            runs.append([greedy, *search.shrink(greedy, 1)])
        assert runs[0] == runs[1]
        sizes = [len(family) for family in runs[0]]
        assert sizes == list(range(sizes[0], sizes[0] - len(sizes), -1))
        assert len(sizes) > 1
        if value is not None:
            assert sizes[-1] == value
        for family in runs[0]:
            witness = kneserdom.solve._to_family(params, search.masks, family)
            assert verify(witness, kind, k).valid

    @pytest.mark.parametrize("n,r,kind,k,value", [
        (7, 3, KD, 2, 13),
        (8, 3, KTT, 1, 8),
    ])
    def test_phases_share_one_state(self, n, r, kind, k, value):
        """`greedy`, `shrink` and `find` run on one search in turn, as in
        `solve_domination`. `shrink` ends on the size it misses, an invalid
        state; each `find` after it returns the family, and takes the
        nodes, that it returns and takes on a fresh search."""
        search = _search(n, r, kind, k)
        greedy = search.greedy()
        assert len(list(search.shrink(greedy, 1))) > 0
        assert search.needy
        for size in (value - 1, value):
            fresh = _search(n, r, kind, k)
            before = search.nodes
            family = search.find(size, True)
            assert family == fresh.find(size, True)
            assert search.nodes - before == fresh.nodes > 0
        assert len(family) == value

    @pytest.mark.parametrize("n,r,kind,k", [
        *((n, 2, kind, 2) for n in (4, 5, 6) for kind in (KD, KT, KTT)
          if (n, kind) != (4, KTT)),  # K(4,2) is a matching: undefined
        (7, 3, KD, 2), (7, 3, KT, 3), (7, 3, KTT, 1),
        (8, 3, KTT, 1), (8, 3, KD, 2),
        (9, 3, KD, 2),
        (9, 4, KD, 1), (9, 4, KD, 2),
        (10, 4, KTT, 2),
        (16, 3, KD, 3), (16, 3, KTT, 3),
    ])
    def test_shrink_matches_reference(self, n, r, kind, k):
        """`shrink` yields the same families as `reference_shrink`, the
        search as first written, and checks the deadline as often: from
        the greedy family down to size 1, which runs every move of the
        first size missed, and down to the root lower bound of
        `solve_domination`, where the search may stop by that bound."""

        class Counter:
            calls = 0

            def check(self):
                self.calls += 1

        params = KneserParams(n, r)
        masks = list(params.vertex_masks())
        for lower in (1, None):
            runs = []
            for shrink in (reference_shrink,
                           kneserdom.solve._DominationSearch.shrink):
                deadline = Counter()
                search = kneserdom.solve._DominationSearch(masks, kind, k,
                                                           deadline)
                greedy = search.greedy()
                if lower is None:
                    lower = max(kneserdom.solve._theorem_bound(params, k)[0],
                                search.counting_bound())
                runs.append((list(shrink(search, greedy, lower)),
                             deadline.calls))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", [KD, KTT])
    def test_k163_bracket_narrows_to_7_8(self, kind):
        """gamma_3 and the k-tuple total 3-domination number of K(16,3) lie
        in [7, 8]: the theorem bound, and a local-search family one below
        the greedy's 9. Size 7 stays open for the rest of the budget."""
        res = dom(16, 3, kind, 3, timeout=5)
        assert res.status is SolveStatus.BOUNDS
        assert (res.lower_bound, res.upper_bound) == (7, 8)
        assert len(res.witness) == 8
        assert verify(res.witness, kind, 3).valid


def _atoms(n, sets):
    """The non-empty Venn atoms of `sets` over [n], as lists of elements:
    the classes of elements by which sets contain them."""
    atoms = {}
    for x in range(n):
        atoms.setdefault(tuple(s >> x & 1 for s in sets), []).append(x)
    return list(atoms.values())


def _preserving_permutation(n, sets, rng):
    """A random permutation of [n], as a list, that maps each Venn atom of
    `sets` onto itself."""
    perm = list(range(n))
    for atom in _atoms(n, sets):
        for x, y in zip(atom, rng.sample(atom, len(atom))):
            perm[x] = y
    return perm


def _apply(perm, mask):
    return sum(1 << perm[x] for x in range(len(perm)) if mask >> x & 1)


def _orbit_map(contains, sets, among):
    """orbit[v] for each v in the bitset `among`: v's class from
    `solve._orbits`, which lists only the classes of two or more."""
    classes = kneserdom.solve._orbits(contains, sets, among)
    return {v: kneserdom.solve._orbit(classes, v)
            for v in range(among.bit_length()) if among >> v & 1}


def _keyed_classes(n, masks, sets, among):
    """The classes of two or more members of `among` when each vertex is
    keyed from scratch by its count in every Venn atom of `sets`."""
    atoms = _atoms(n, sets)
    classes = {}
    for v in range(among.bit_length()):
        if among >> v & 1:
            key = tuple(sum(masks[v] >> x & 1 for x in atom) for atom in atoms)
            classes[key] = classes.get(key, 0) | 1 << v
    return sorted(cls for cls in classes.values() if cls & (cls - 1))


class TestOrbits:
    """`solve._orbits(contains, sets, among)` lists the orbits of the
    permutations fixing every set in `sets`, cut down to `among`, that hold
    two vertices or more: over all vertices each class is closed under
    them, and each is one orbit; over fewer, each is its full class within
    `among`. Checked on one, two and three fixed sets, repeats included."""

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 4), (11, 5)])
    def test_classes_are_orbits(self, n, r):
        rng = random.Random(1000 * n + r)
        masks = list(KneserParams(n, r).vertex_masks())
        index = {m: i for i, m in enumerate(masks)}
        others = range(1, len(masks))
        picks = [[0], [0, 0], [0, 0, 0]]  # repeated sets fix no more
        for count in (2, 3):
            picks += [[0] + rng.sample(others, count - 1) for _ in range(2)]
        picks.append([0] + [rng.choice(others)] * 2)
        everyone = (1 << len(masks)) - 1
        contains = kneserdom.solve._containers(masks)
        for pick in picks:
            sets = [masks[t] for t in pick]
            orbit = _orbit_map(contains, sets, everyone)
            assert sorted(kneserdom.solve._orbits(
                contains, sets, everyone)) == _keyed_classes(
                    n, masks, sets, everyone)
            for _ in range(5):
                among = rng.getrandbits(len(masks))
                assert _orbit_map(contains, sets, among) == {
                    v: orbit[v] & among for v in range(len(masks))
                    if among >> v & 1}
            for _ in range(5):
                perm = _preserving_permutation(n, sets, rng)
                for v, m in enumerate(masks):
                    assert orbit[index[_apply(perm, m)]] == orbit[v]
            # every member of a class is the image of its first member under
            # a permutation that maps each atom onto itself
            for cls in set(orbit.values()):
                first = masks[(cls & -cls).bit_length() - 1]
                for v, m in enumerate(masks):
                    if not cls >> v & 1:
                        continue
                    perm = list(range(n))
                    for atom in _atoms(n, sets):
                        # the atom's elements of `first` go to those of m
                        src = sorted(atom, key=lambda x: not first >> x & 1)
                        dst = sorted(atom, key=lambda x: not m >> x & 1)
                        for x, y in zip(src, dst):
                            perm[x] = y
                    assert _apply(perm, first) == m
                    assert all(_apply(perm, s) == s for s in sets)

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 4), (10, 4)])
    def test_clique_search_fixes_the_whole_clique(self, n, r, monkeypatch):
        # The value tests cannot see an unsound orbit rule: on these graphs
        # even excluding every candidate after the first branch at cliques
        # of up to four members still finds rho2. So check the rule
        # itself: every branch at a clique C of at most four members, once
        # done, excludes the classes of keying C's candidates from scratch
        # by their counts in the Venn atoms of every member of C, and every
        # deeper branch excludes its vertex alone. The classes are carried
        # down from the parent by `_refine`, which refines them by C's last
        # member over all of C's candidates.
        solve = kneserdom.solve
        masks = list(KneserParams(n, r).vertex_masks())
        stack, calls, exclusions = [], [], []
        expand, refine, orbit = (solve._CliqueSearch.expand, solve._refine,
                                 solve._orbit)

        def traced_expand(self, clique, p_mask, keyed):
            stack.append((list(clique), p_mask))
            try:
                expand(self, clique, p_mask, keyed)
            finally:
                stack.pop()

        def traced_refine(contains, classes, atoms, member, among):
            clique, candidates = stack[-1]
            assert among == candidates and member == masks[clique[-1]]
            calls.append(clique)
            return refine(contains, classes, atoms, member, among)

        def traced_orbit(classes, v):
            clique, candidates = stack[-1]
            assert sorted(classes) == (
                _keyed_classes(n, masks, [masks[c] for c in clique],
                               candidates)
                if len(clique) <= solve._ORBIT_DEPTH else [])
            exclusions.append((len(clique), len(classes)))
            return orbit(classes, v)

        monkeypatch.setattr(solve._CliqueSearch, "expand", traced_expand)
        monkeypatch.setattr(solve, "_refine", traced_refine)
        monkeypatch.setattr(solve, "_orbit", traced_orbit)
        assert solve_rho2(KneserParams(n, r)).optimal
        assert calls
        assert all(1 <= len(clique) <= solve._ORBIT_DEPTH for clique in calls)
        assert any(depth == solve._ORBIT_DEPTH for depth, _ in exclusions)
        if (n, r) == (9, 4):  # the only one of the three with such orbits
            assert any(depth == solve._ORBIT_DEPTH and classes
                       for depth, classes in exclusions)


def _has_clique(compat, cand, size):
    """Whether the vertices of the bitset `cand` hold a clique of `size`
    members, by exhaustive search with no bound but the count left."""
    if size <= 0:
        return True
    while cand.bit_count() >= size:
        v = cand.bit_length() - 1
        cand ^= 1 << v
        if _has_clique(compat, cand & compat[v], size - 1):
            return True
    return False


def _greedy_classes(compat, p_mask):
    """The plain class-by-class greedy coloring of `p_mask`: each class
    takes the lowest vertex left and every later one not adjacent to it."""
    classes = []
    while p_mask:
        q, cls = p_mask, 0
        while q:
            low = q & -q
            cls |= low
            p_mask ^= low
            q &= ~(compat[low.bit_length() - 1] | low)
        classes.append(cls)
    return classes


class TestInfraChromatic:
    """`_CliqueSearch.color_order` leaves a candidate out of the branching
    list only while the candidates left out hold no clique of kmin members:
    ω(P minus the branching list) <= kmin - 1. The kept vertices keep their
    plain greedy colors in order, one independent class per color, so each
    kept color bounds the clique number of everything up to it.

    Value tests cannot see an unsound prune on graphs this symmetric, so
    the bound is checked by brute force: at every node of the ρ₂ searches of
    K(7,3), K(9,4) and K(10,4), and on random candidate sets of their
    compatibility graphs at every kmin."""

    @staticmethod
    def _check(compat, p_mask, kmin, order, colors):
        """Assert the bound at one call; return how many vertices of color
        >= kmin were absorbed, left out of the branching list."""
        plain = _greedy_classes(compat, p_mask)
        assert all(plain[c - 1] >> v & 1 for v, c in zip(order, colors))
        assert colors == sorted(colors)
        kept = sum(1 << v for v in order)
        assert kept.bit_count() == len(order)
        assert not _has_clique(compat, p_mask & ~kept, kmin)
        return (sum(plain[kmin - 1:]) & ~kept).bit_count()

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 4), (10, 4)])
    def test_every_search_node(self, n, r, monkeypatch):
        solve = kneserdom.solve
        color_order = solve._CliqueSearch.color_order
        absorbed = []

        def traced(self, p_mask, kmin):
            order, colors = color_order(self, p_mask, kmin)
            absorbed.append(TestInfraChromatic._check(
                self.compat, p_mask, kmin, order, colors))
            return order, colors

        monkeypatch.setattr(solve._CliqueSearch, "color_order", traced)
        res = solve_rho2(KneserParams(n, r))
        assert res.optimal and len(absorbed) == res.nodes
        if (n, r) == (9, 4):  # the other two close in a few nodes
            assert sum(absorbed) > 0

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 4), (10, 4)])
    def test_random_candidate_sets(self, n, r):
        params = KneserParams(n, r)
        masks = list(params.vertex_masks())
        contains = kneserdom.solve._containers(masks)
        compat = kneserdom.solve._relation_bitsets(
            masks, contains, packing_intersections(params))
        search = kneserdom.solve._CliqueSearch(compat, masks, contains,
                                               len(masks), None)
        rng = random.Random(100 * n + r)
        absorbed = 0
        for _ in range(10):
            p_mask = rng.getrandbits(len(masks))
            for kmin in range(1, len(_greedy_classes(compat, p_mask)) + 2):
                order, colors = search.color_order(p_mask, kmin)
                absorbed += self._check(compat, p_mask, kmin, order, colors)
        assert absorbed > 0


class TestRelationBitsets:
    """`solve._relation_bitsets` relates exactly the pairs whose intersection
    size is allowed, as a plain double loop over the pairs does."""

    @pytest.mark.parametrize("n,r", [(7, 3), (8, 3), (9, 4), (10, 4), (11, 5)])
    def test_matches_pairwise_reference(self, n, r):
        params = KneserParams(n, r)
        masks = list(params.vertex_masks())
        size_sets = [(0,), packing_intersections(params)]
        if (n, r) in [(7, 3), (9, 4)]:
            # every subset of the sizes below r: every pattern of the slices
            size_sets += [tuple(c) for k in range(r + 1)
                          for c in combinations(range(r), k)]
        for sizes in size_sets:
            reference = [
                sum(1 << j for j, mj in enumerate(masks)
                    if j != i and (mi & mj).bit_count() in sizes)
                for i, mi in enumerate(masks)
            ]
            assert kneserdom.solve._relation_bitsets(
                masks, kneserdom.solve._containers(masks), sizes) == reference


# Delsarte's LP bound of K(n,r): exact values, and the floors of K(3r-4, r)
DELSARTE_VALUES = {
    (7, 3): Fraction(7),
    (9, 4): Fraction(27, 2),
    (10, 4): Fraction(5),
    (11, 5): Fraction(66),
    (12, 5): Fraction(264, 19),
    (15, 6): Fraction(10),
    (18, 7): Fraction(90, 13),
    (21, 8): Fraction(63, 11),
}
DELSARTE_FLOORS = {(14, 6): 50, (17, 7): 28, (20, 8): 21, (23, 9): 11}


class TestDelsarte:
    """The LP bound and its dual, against the clique search and an oracle
    that shares no code with either."""

    @pytest.mark.parametrize("n,r", sorted(DELSARTE_VALUES))
    def test_values(self, n, r):
        bound, dual = delsarte_lp(n, r)
        assert bound == DELSARTE_VALUES[n, r]
        check_delsarte_dual(KneserParams(n, r), dual, bound)

    @pytest.mark.parametrize("r", range(3, 13))
    def test_integer_tableau_matches_the_fraction_simplex(self, r):
        # the fraction-free tableau makes the Fraction tableau's pivots, so
        # every band instance gets the same bound and dual, exactly
        for n in range(2 * r + 1, 3 * r - 1):
            bound, dual = delsarte_lp(n, r)
            assert (bound, dual) == reference_delsarte_lp(n, r)
            assert all(isinstance(x, Fraction) for x in [bound, *dual])
            check_delsarte_dual(KneserParams(n, r), dual, bound)

    @pytest.mark.parametrize("n,r", sorted(DELSARTE_FLOORS))
    def test_floors(self, n, r):
        assert floor(delsarte_lp(n, r)[0]) == DELSARTE_FLOORS[n, r]

    @pytest.mark.parametrize("n,r", [(7, 3), (10, 4)])
    def test_floor_is_tight_against_bron_kerbosch(self, n, r):
        assert floor(delsarte_lp(n, r)[0]) == bron_kerbosch_rho2(
            KneserParams(n, r))

    @pytest.mark.parametrize("n,r", [(9, 4), (12, 5)])
    def test_floor_bounds_the_searched_value(self, n, r):
        # the floor 13 stays above the value 12, so the search is exhaustive
        res = solve_rho2(KneserParams(n, r), SolverConfig(timeout=600))
        assert res.optimal and res.nodes > 0
        assert floor(delsarte_lp(n, r)[0]) >= res.value

    @pytest.mark.parametrize("n,r,value", [(15, 6, 10), (18, 7, 6),
                                           (21, 8, 5)])
    def test_recorded_packings_close_without_search(self, n, r, value,
                                                    monkeypatch):
        # the recorded packing of K(3r-3, r) meets the LP floor, so rho2 is
        # closed before any graph is built
        def no_graph(masks, contains, sizes, deadline=None):
            raise AssertionError("graph built for a closed 2-packing number")

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", no_graph)
        res = solve_rho2(KneserParams(n, r))
        assert res.status is SolveStatus.OPTIMAL
        assert (res.value, res.nodes) == (value, 0)
        assert res.witness == table3_packing(r)

    @pytest.mark.parametrize("n,r,value,nodes", [(7, 3, 7, 8),
                                                 (10, 4, 5, 6)])
    def test_search_stops_at_the_floor(self, n, r, value, nodes):
        # without the root fixed, the coloring bounds stay above the value,
        # and the search ends only because a packing meets the LP floor
        # (16 and 1,939 nodes without that stop)
        res = solve_rho2(KneserParams(n, r),
                         SolverConfig(symmetry_breaking=False))
        assert res.optimal and (res.value, res.nodes) == (value, nodes)


def test_lp_runs_behind_the_ceiling(monkeypatch):
    """The LP bound is solved only once the vertices are enumerated, so an
    instance above the ceiling stops there before paying for it."""
    def no_lp(n, r):
        raise AssertionError("Delsarte LP solved above the vertex ceiling")

    monkeypatch.setattr(kneserdom.solve, "delsarte_lp", no_lp)
    monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", "10")
    with pytest.raises(CapacityError, match="exceeding the ceiling of 10"):
        solve_rho2(KneserParams(7, 3))


class TestTimeout:
    """An expired budget stops at the first deadline check (every move of
    the domination local search, every 512 domination nodes, every clique
    node, every 64 rows of the compatibility graph's build), so these
    brackets do not depend on the speed of the machine."""

    def test_domination_timeout_returns_bracket(self):
        res = dom(10, 3, KTT, 3, timeout=1e-9)
        assert res.status is SolveStatus.BOUNDS
        assert res.value is None
        assert (res.lower_bound, res.upper_bound, res.nodes) == (11, 16, 0)
        assert len(res.witness) == res.upper_bound
        assert verify(res.witness, KTT, 3).valid

    def test_budget_counts_the_graph_build(self, monkeypatch):
        # the budget counts from the start of the solve, so a graph build
        # that outlasts it stops the search at its first deadline check
        build = kneserdom.solve._relation_bitsets

        def slow_build(masks, contains, sizes, deadline):
            compat = build(masks, contains, sizes, deadline)
            time.sleep(0.1)
            return compat

        monkeypatch.setattr(kneserdom.solve, "_relation_bitsets", slow_build)
        res = solve_rho2(KneserParams(11, 5), SolverConfig(timeout=0.05))
        assert res.status is SolveStatus.BOUNDS
        assert res.nodes == 1

    def test_clique_search_checks_the_deadline_at_every_node(self):
        # a clique node can cost a minute on K(17,8), so the first node
        # under an expired deadline is the last
        params = KneserParams(9, 4)
        masks = list(params.vertex_masks())
        contains = kneserdom.solve._containers(masks)
        compat = kneserdom.solve._relation_bitsets(
            masks, contains, packing_intersections(params))
        search = kneserdom.solve._CliqueSearch(
            compat, masks, contains, len(masks), kneserdom.solve._Deadline(0.0))
        with pytest.raises(kneserdom.solve._Timeout):
            search.expand([0], compat[0], None)
        assert search.nodes == 1

    def test_rho2_timeout_returns_bracket(self):
        # the build checks the deadline at its first row, so the bracket is
        # one vertex up to the Delsarte floor 66, with no search node
        res = solve_rho2(KneserParams(11, 5), SolverConfig(timeout=1e-9))
        assert res.status is SolveStatus.BOUNDS
        assert res.value is None
        assert (res.lower_bound, res.upper_bound, res.nodes) == (1, 66, 0)
        assert len(res.witness) == res.lower_bound
        assert verify_2_packing(res.witness).valid

    def test_expired_budget_stops_the_local_search(self):
        # the local search checks the deadline before its first move, so the
        # bracket runs from the theorem bound to the greedy family
        res = dom(16, 3, KD, 3, timeout=1e-9)
        assert res.status is SolveStatus.BOUNDS
        assert (res.lower_bound, res.upper_bound, res.nodes) == (7, 9, 0)
        assert len(res.witness) == res.upper_bound
        assert verify(res.witness, KD, 3).valid


class TestResultStatus:
    def test_status_follows_bracket(self):
        open_bracket = SolveResult(3, 5)
        assert open_bracket.status is SolveStatus.BOUNDS
        assert open_bracket.value is None
        closed = SolveResult(4, 4)
        assert closed.status is SolveStatus.OPTIMAL
        assert closed.value == 4 and closed.optimal
        undefined = SolveResult(None, None)
        assert undefined.status is SolveStatus.UNDEFINED
        assert undefined.value is None


def _always_invalid(family, kind=InvariantKind.TWO_PACKING, k=0):
    return VerificationReport(kind, k, family.members[0], 1)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda: dom(8, 2, KD, 2), id="theorem-clique"),
    pytest.param(lambda: dom(5, 2, KD, 2), id="domination-search"),
    pytest.param(lambda: dom(8, 3, KD, 2, timeout=1e-9),
                 id="domination-bracket"),
    pytest.param(lambda: solve_rho2(KneserParams(8, 3)), id="diameter-two"),
    pytest.param(lambda: solve_rho2(KneserParams(6, 3)), id="matching"),
    pytest.param(lambda: dom(7, 2, KD, 2), id="boundary-row"),
    pytest.param(lambda: solve_rho2(KneserParams(24, 9)), id="threshold"),
    pytest.param(lambda: solve_rho2(KneserParams(15, 6)),
                 id="delsarte-closure"),
    pytest.param(lambda: solve_rho2(KneserParams(7, 3)), id="clique-search"),
    pytest.param(lambda: solve_rho2(KneserParams(11, 5),
                                    SolverConfig(timeout=1e-9)),
                 id="clique-bracket"),
])
def test_every_witness_exit_is_checked(monkeypatch, solve):
    """Each solver return with a witness raises if its verifier rejects it."""
    monkeypatch.setattr("kneserdom.solve.verify", _always_invalid)
    monkeypatch.setattr("kneserdom.solve.verify_2_packing", _always_invalid)
    with pytest.raises(InternalCheckError,
                       match="solver produced an invalid witness"):
        solve()


def _short_rho3_witness(r, t):
    witness = rho3_witness(r, t)
    return VertexFamily(witness.params, witness.members[:2])


def test_short_closed_form_witness_proves_only_its_size(monkeypatch):
    """The witness fixes its end of the bracket: a threshold witness one
    member short proves rho2 >= 2, not the forced value 3."""
    monkeypatch.setattr("kneserdom.solve.rho3_witness", _short_rho3_witness)
    res = solve_rho2(KneserParams(13, 5))
    assert res.status is SolveStatus.BOUNDS
    assert (res.lower_bound, res.upper_bound, len(res.witness)) == (2, 3, 2)


def _theorem_bound_above_clique(params, k):
    return k + params.r + 1, disjoint_clique(k, params.r, params.n)


def _long_rho3_witness(r, t):
    witness = rho3_witness(r, t)
    extra = next(v for v in vertices(witness.params) if v not in witness)
    return VertexFamily(witness.params, witness.members + (extra,))


@pytest.mark.parametrize("name,fake,solve", [
    pytest.param("_theorem_bound", _theorem_bound_above_clique,
                 lambda: dom(8, 2, KD, 2), id="theorem-clique"),
    pytest.param("rho3_witness", _long_rho3_witness,
                 lambda: solve_rho2(KneserParams(13, 5)), id="threshold"),
])
def test_witness_beyond_its_bound_raises(monkeypatch, name, fake, solve):
    """A witness on the wrong side of the bound its exit proved raises,
    before the verifier runs."""
    monkeypatch.setattr(f"kneserdom.solve.{name}", fake)
    with pytest.raises(InternalCheckError,
                       match="lower bound exceeds upper bound"):
        solve()


def _run_under_optimize(script: str) -> str:
    """The stdout of `script` run by python -O, which strips asserts."""
    src = str(Path(kneserdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_witness_check_runs_under_optimize():
    """An invalid witness raises even when python -O strips asserts."""
    out = _run_under_optimize("""
        if __debug__:
            raise SystemExit("not running under -O")
        import kneserdom.solve as solve
        from kneserdom import (
            InternalCheckError, InvariantKind, KneserParams, VerificationReport,
        )

        def always_invalid(family, kind, k=0):
            return VerificationReport(kind, k, family.members[0], 1)

        solve.verify = always_invalid
        try:
            res = solve.solve_domination(
                KneserParams(5, 2), InvariantKind.K_DOMINATION, 2)
        except InternalCheckError as exc:
            print("raised:", exc)
        else:
            print("returned", res.status.value, res.value)
    """)
    assert out == "raised: solver produced an invalid witness"


def test_delsarte_check_runs_under_optimize():
    """A Delsarte dual that proves nothing stops the solve before its bound
    is used, even when python -O strips asserts. Half the dual of K(15,6),
    with its bound restated, breaks only the tight constraint of distance 4."""
    out = _run_under_optimize("""
        if __debug__:
            raise SystemExit("not running under -O")
        import kneserdom.solve as solve
        from kneserdom import InternalCheckError, KneserParams

        lp = solve.delsarte_lp

        def corrupted(n, r):
            bound, dual = lp(n, r)
            half = [y / 2 for y in dual]
            return 1 + sum(half), half

        solve.delsarte_lp = corrupted
        try:
            res = solve.solve_rho2(KneserParams(15, 6))
        except InternalCheckError as exc:
            print("raised:", exc)
        else:
            print("returned", res.status.value, res.value)
    """)
    assert out == "raised: Delsarte dual violates the constraint of distance 4"


def test_lower_bound_check_runs_under_optimize():
    """A root lower bound above the smallest family found raises, whether
    the counting bound is too high or the heuristic returns a family below
    it, even when python -O strips asserts."""
    out = _run_under_optimize("""
        if __debug__:
            raise SystemExit("not running under -O")
        import kneserdom.solve as solve
        from kneserdom import InternalCheckError, InvariantKind, KneserParams

        search = solve._DominationSearch
        original = dict(vars(search))

        def too_small(self, family, lower):
            yield family[:lower - 1]

        for name, fake in (("counting_bound", lambda self: 99),
                           ("shrink", too_small)):
            setattr(search, name, fake)
            try:
                res = solve.solve_domination(
                    KneserParams(7, 3), InvariantKind.K_DOMINATION, 2)
            except InternalCheckError as exc:
                print("raised:", exc)
            else:
                print("returned", res.status.value, res.value)
            setattr(search, name, original[name])
    """)
    assert out.splitlines() == [
        "raised: lower bound exceeds upper bound"] * 2
