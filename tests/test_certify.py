"""Tests for the certificate checkers."""

import random
from itertools import combinations

import pytest

from kneserdom import (
    DefinabilityError,
    InvariantKind,
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    closed_neighbor_count,
    open_neighbor_count,
    verify,
    verify_2_packing,
    verify_k_dominating,
    verify_k_tuple_dominating,
    verify_k_tuple_total_dominating,
)


def fam(n, r, *sets):
    return VertexFamily.from_sets(KneserParams(n, r), sets)


# the star on element 1 is a maximum independent set of the Petersen graph
# and a minimum 2-dominating set
PETERSEN_GAMMA2 = fam(5, 2, [1, 2], [1, 3], [1, 4], [1, 5])


class TestKDominating:
    def test_petersen_witness(self):
        assert verify_k_dominating(PETERSEN_GAMMA2, 2).valid

    def test_petersen_too_small(self):
        report = verify_k_dominating(fam(5, 2, [1, 2], [1, 3], [1, 4]), 2)
        assert not report.valid
        assert report.witness_violation is not None

    def test_members_exempt(self):
        # a single vertex 2-dominates nothing, but D = V(G) is vacuously valid
        p = KneserParams(5, 2)
        everything = VertexFamily(p, tuple(p.vertices()))
        report = verify_k_dominating(everything, 99)
        assert report.valid
        assert report.checked_count == 0

    def test_first_violation_in_colex_order(self):
        # D = {{1,2}} in K(5,2): first non-member with no neighbor in D
        report = verify_k_dominating(fam(5, 2, [1, 2]), 1)
        assert not report.valid
        assert report.witness_violation == Vertex.from_elements((1, 3))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ParameterError):
            verify_k_dominating(PETERSEN_GAMMA2, 0)


class TestKTupleDominating:
    def test_petersen_witness(self):
        D = fam(5, 2, [1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [4, 5])
        assert verify_k_tuple_dominating(D, 2).valid

    def test_definability_guard(self):
        # K(6,3) has minimum degree 1, so 3-tuple domination is undefined
        with pytest.raises(DefinabilityError):
            verify_k_tuple_dominating(fam(6, 3, [1, 2, 3]), 3)

    def test_members_count_themselves(self):
        # K(6,3): each vertex has exactly one neighbor, so D = V(G) is the
        # only 2-tuple dominating set
        p = KneserParams(6, 3)
        everything = VertexFamily(p, tuple(p.vertices()))
        assert verify_k_tuple_dominating(everything, 2).valid

    def test_detects_short_closed_neighborhood(self):
        report = verify_k_tuple_dominating(fam(6, 3, [1, 2, 3], [4, 5, 6]), 2)
        assert not report.valid
        u = report.witness_violation
        assert closed_neighbor_count(u, fam(6, 3, [1, 2, 3], [4, 5, 6])) < 2


class TestKTupleTotalDominating:
    def test_definability_guard(self):
        with pytest.raises(DefinabilityError):
            verify_k_tuple_total_dominating(fam(6, 3, [1, 2, 3]), 2)

    def test_membership_never_counts(self):
        p = KneserParams(6, 3)
        everything = VertexFamily(p, tuple(p.vertices()))
        # open neighborhoods have exactly 1 vertex, so even D = V(G) passes
        # only for k = 1
        assert verify_k_tuple_total_dominating(everything, 1).valid

    def test_clique_witness(self):
        D = fam(8, 2, [1, 2], [3, 4], [5, 6], [7, 8])
        assert verify_k_tuple_total_dominating(D, 2).valid

    def test_clique_minus_one_fails(self):
        D = fam(8, 2, [1, 2], [3, 4], [5, 6])
        report = verify_k_tuple_total_dominating(D, 2)
        assert not report.valid
        u = report.witness_violation
        assert open_neighbor_count(u, D) < 2


class TestNesting:
    """k-tuple total => k-tuple => k-dominating, and k decreases monotonically."""

    def _random_families(self, n, r, seed, trials):
        rng = random.Random(seed)
        pool = list(KneserParams(n, r).vertices())
        for _ in range(trials):
            members = rng.sample(pool, rng.randint(1, len(pool) // 2))
            yield VertexFamily(KneserParams(n, r), tuple(members))

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 101), (7, 3, 202)])
    def test_implication_chain(self, n, r, seed):
        for D in self._random_families(n, r, seed, 25):
            for k in (1, 2, 3):
                total = verify_k_tuple_total_dominating(D, k).valid
                tuple_ = verify_k_tuple_dominating(D, k).valid
                plain = verify_k_dominating(D, k).valid
                if total:
                    assert tuple_
                if tuple_:
                    assert plain

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 303), (7, 3, 404)])
    def test_monotone_in_k(self, n, r, seed):
        for D in self._random_families(n, r, seed, 25):
            for verifier in (
                verify_k_dominating,
                verify_k_tuple_dominating,
                verify_k_tuple_total_dominating,
            ):
                ok = [verifier(D, k).valid for k in (1, 2, 3)]
                # once it fails for some k it fails for all larger k
                for small, big in zip(ok, ok[1:]):
                    if big:
                        assert small

    def test_superset_closure(self):
        # adding vertices never invalidates a dominating set
        rng = random.Random(505)
        pool = list(KneserParams(6, 2).vertices())
        for _ in range(20):
            members = rng.sample(pool, rng.randint(2, 8))
            D = VertexFamily(KneserParams(6, 2), tuple(members))
            extra = [v for v in pool if v not in D]
            bigger = VertexFamily(
                KneserParams(6, 2),
                tuple(members) + tuple(rng.sample(extra, 2)),
            )
            for k in (1, 2):
                if verify_k_dominating(D, k).valid:
                    assert verify_k_dominating(bigger, k).valid

    def test_order_independence(self):
        D = PETERSEN_GAMMA2
        shuffled = VertexFamily(D.params, tuple(reversed(D.members)))
        for k in (1, 2, 3):
            assert (
                verify_k_dominating(D, k).valid
                == verify_k_dominating(shuffled, k).valid
            )


class TestTwoPacking:
    def test_trivial_families(self):
        assert verify_2_packing(fam(7, 3)).valid
        assert verify_2_packing(fam(7, 3, [1, 2, 3])).valid

    def test_adjacent_pair_rejected(self):
        report = verify_2_packing(fam(7, 3, [1, 2, 3], [4, 5, 6]))
        assert not report.valid
        u, v = report.witness_violation
        assert u.intersection_size(v) == 0

    def test_k73_witness(self):
        S = fam(7, 3, [1, 2, 3], [1, 4, 5], [2, 4, 6])
        assert verify_2_packing(S).valid

    def test_diameter_two_regime(self):
        # n >= 3r-1: any two distinct vertices are within distance 2
        report = verify_2_packing(fam(8, 3, [1, 2, 3], [1, 2, 4]))
        assert not report.valid

    def test_intersection_band_agrees_with_general_test(self):
        # same verdicts whether the banded shortcut applies or not
        rng = random.Random(606)
        p = KneserParams(7, 3)
        pool = list(p.vertices())
        for _ in range(40):
            members = rng.sample(pool, rng.randint(2, 6))
            S = VertexFamily(p, tuple(members))
            expected = all(
                1 <= u.intersection_size(v) <= 3 * 3 - 1 - 7
                for u, v in combinations(members, 2)
            )
            assert verify_2_packing(S).valid == expected

    def test_mutated_recorded_packing_fails(self):
        # swap one element of the first recorded K(12,5) member
        from kneserdom import TABLE3_PACKINGS

        sets = [list(s) for s in TABLE3_PACKINGS[5]]
        assert sets[0] == [1, 2, 3, 4, 8]
        sets[0] = [1, 2, 3, 4, 10]
        report = verify_2_packing(fam(12, 5, *sets))
        assert not report.valid
        assert isinstance(report.witness_violation, tuple)


class TestDispatch:
    def test_verify_routes_by_kind(self):
        assert verify(PETERSEN_GAMMA2, InvariantKind.K_DOMINATION, 2).valid
        S = fam(7, 3, [1, 2, 3], [1, 4, 5])
        assert verify(S, InvariantKind.TWO_PACKING).valid

    def test_report_invariants(self):
        report = verify_k_dominating(PETERSEN_GAMMA2, 2)
        assert report.kind is InvariantKind.K_DOMINATION
        assert report.k == 2
        assert report.checked_count == 6  # 10 vertices minus 4 members


class TestAgainstNeighborCounts:
    """The streaming verifier against the definitions, vertex by vertex."""

    @staticmethod
    def _reference(D, kind, k):
        """(first violating vertex in colex order, vertices checked)."""
        checked = 0
        for u in D.params.vertices():
            if kind is InvariantKind.K_DOMINATION:
                if u in D:
                    continue
                count = open_neighbor_count(u, D)
            elif kind is InvariantKind.K_TUPLE:
                count = closed_neighbor_count(u, D)
            else:
                count = open_neighbor_count(u, D)
            checked += 1
            if count < k:
                return u, checked
        return None, checked

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 707), (7, 3, 808)])
    def test_random_families(self, n, r, seed):
        rng = random.Random(seed)
        p = KneserParams(n, r)
        pool = list(p.vertices())
        for _ in range(40):
            D = VertexFamily(p, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            for kind in (
                InvariantKind.K_DOMINATION,
                InvariantKind.K_TUPLE,
                InvariantKind.K_TUPLE_TOTAL,
            ):
                for k in (1, 2, 3):
                    report = verify(D, kind, k)
                    violation, checked = self._reference(D, kind, k)
                    assert report.valid == (violation is None)
                    assert report.witness_violation == violation
                    assert report.checked_count == checked
                    if report.valid:
                        exempt = kind is InvariantKind.K_DOMINATION
                        assert checked == len(pool) - (len(D) if exempt else 0)
