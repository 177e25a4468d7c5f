"""Tests for the certificate checkers."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kneserdom import (
    DefinabilityError,
    InternalCheckError,
    InvariantKind,
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    verify,
    verify_2_packing,
)
from kneserdom.certify import (
    check_delsarte_dual,
    is_defined,
    packing_intersections,
)
from kneserdom.construct import (
    disjoint_clique,
    gamma_kt_boundary,
    rho3_witness,
    rho4_witness,
    table3_packing,
)

from helpers import (
    block_packing,
    closed_neighbor_count,
    distance_at_most_2,
    open_neighbor_count,
    pairwise_intersections,
    perturb_packing,
    reference_domination_report,
    vertices,
)

KD = InvariantKind.K_DOMINATION
KT = InvariantKind.K_TUPLE
KTT = InvariantKind.K_TUPLE_TOTAL


def fam(n, r, *sets):
    return VertexFamily.from_sets(KneserParams(n, r), sets)


# the star on element 1 is a maximum independent set of the Petersen graph
# and a minimum 2-dominating set
PETERSEN_GAMMA2 = fam(5, 2, [1, 2], [1, 3], [1, 4], [1, 5])


class TestKDominating:
    def test_petersen_witness(self):
        assert verify(PETERSEN_GAMMA2, KD, 2).valid

    def test_petersen_too_small(self):
        report = verify(fam(5, 2, [1, 2], [1, 3], [1, 4]), KD, 2)
        assert not report.valid
        assert report.witness_violation is not None

    def test_members_exempt(self):
        # a single vertex 2-dominates nothing, but D = V(G) is vacuously valid
        p = KneserParams(5, 2)
        everything = VertexFamily(p, tuple(vertices(p)))
        report = verify(everything, KD, 99)
        assert report.valid
        assert report.checked_count == 0

    def test_first_violation_in_colex_order(self):
        # D = {{1,2}} in K(5,2): first non-member with no neighbor in D
        report = verify(fam(5, 2, [1, 2]), KD, 1)
        assert not report.valid
        assert report.witness_violation == Vertex.from_elements((1, 3))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ParameterError):
            verify(PETERSEN_GAMMA2, KD, 0)


class TestKTupleDominating:
    def test_petersen_witness(self):
        D = fam(5, 2, [1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [4, 5])
        assert verify(D, KT, 2).valid

    def test_definability_guard(self):
        # K(6,3) has minimum degree 1, so 3-tuple domination is undefined
        with pytest.raises(DefinabilityError):
            verify(fam(6, 3, [1, 2, 3]), KT, 3)

    def test_members_count_themselves(self):
        # K(6,3): each vertex has exactly one neighbor, so D = V(G) is the
        # only 2-tuple dominating set
        p = KneserParams(6, 3)
        everything = VertexFamily(p, tuple(vertices(p)))
        assert verify(everything, KT, 2).valid

    def test_detects_short_closed_neighborhood(self):
        report = verify(fam(6, 3, [1, 2, 3], [4, 5, 6]), KT, 2)
        assert not report.valid
        u = report.witness_violation
        assert closed_neighbor_count(u, fam(6, 3, [1, 2, 3], [4, 5, 6])) < 2


class TestKTupleTotalDominating:
    def test_definability_guard(self):
        with pytest.raises(DefinabilityError):
            verify(fam(6, 3, [1, 2, 3]), KTT, 2)

    def test_membership_never_counts(self):
        p = KneserParams(6, 3)
        everything = VertexFamily(p, tuple(vertices(p)))
        # open neighborhoods have exactly 1 vertex, so even D = V(G) passes
        # only for k = 1
        assert verify(everything, KTT, 1).valid

    def test_clique_witness(self):
        D = fam(8, 2, [1, 2], [3, 4], [5, 6], [7, 8])
        assert verify(D, KTT, 2).valid

    def test_clique_minus_one_fails(self):
        D = fam(8, 2, [1, 2], [3, 4], [5, 6])
        report = verify(D, KTT, 2)
        assert not report.valid
        u = report.witness_violation
        assert open_neighbor_count(u, D) < 2


class TestNesting:
    """k-tuple total => k-tuple => k-dominating, and k decreases monotonically."""

    def _random_families(self, n, r, seed, trials):
        rng = random.Random(seed)
        pool = vertices(KneserParams(n, r))
        for _ in range(trials):
            members = rng.sample(pool, rng.randint(1, len(pool) // 2))
            yield VertexFamily(KneserParams(n, r), tuple(members))

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 101), (7, 3, 202)])
    def test_implication_chain(self, n, r, seed):
        for D in self._random_families(n, r, seed, 25):
            for k in (1, 2, 3):
                total = verify(D, KTT, k).valid
                tuple_ = verify(D, KT, k).valid
                plain = verify(D, KD, k).valid
                if total:
                    assert tuple_
                if tuple_:
                    assert plain

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 303), (7, 3, 404)])
    def test_monotone_in_k(self, n, r, seed):
        for D in self._random_families(n, r, seed, 25):
            for kind in (KD, KT, KTT):
                ok = [verify(D, kind, k).valid for k in (1, 2, 3)]
                # once it fails for some k it fails for all larger k
                for small, big in zip(ok, ok[1:]):
                    if big:
                        assert small

    def test_superset_closure(self):
        # adding vertices never invalidates a dominating set
        rng = random.Random(505)
        pool = vertices(KneserParams(6, 2))
        for _ in range(20):
            members = rng.sample(pool, rng.randint(2, 8))
            D = VertexFamily(KneserParams(6, 2), tuple(members))
            extra = [v for v in pool if v not in D]
            bigger = VertexFamily(
                KneserParams(6, 2),
                tuple(members) + tuple(rng.sample(extra, 2)),
            )
            for k in (1, 2):
                if verify(D, KD, k).valid:
                    assert verify(bigger, KD, k).valid

    def test_order_independence(self):
        D = PETERSEN_GAMMA2
        shuffled = VertexFamily(D.params, tuple(reversed(D.members)))
        for k in (1, 2, 3):
            assert (
                verify(D, KD, k).valid
                == verify(shuffled, KD, k).valid
            )


class TestTwoPacking:
    def test_trivial_families(self):
        assert verify_2_packing(fam(7, 3)).valid
        assert verify_2_packing(fam(7, 3, [1, 2, 3])).valid

    def test_adjacent_pair_rejected(self):
        report = verify_2_packing(fam(7, 3, [1, 2, 3], [4, 5, 6]))
        assert not report.valid
        u, v = report.witness_violation
        assert (u.mask & v.mask).bit_count() == 0

    def test_k73_witness(self):
        S = fam(7, 3, [1, 2, 3], [1, 4, 5], [2, 4, 6])
        assert verify_2_packing(S).valid

    def test_diameter_two_regime(self):
        # n >= 3r-1: any two distinct vertices are within distance 2
        report = verify_2_packing(fam(8, 3, [1, 2, 3], [1, 2, 4]))
        assert not report.valid

    def test_intersection_band_agrees_with_general_test(self):
        # the one intersection rule against the definition of distance, on
        # graphs inside the band 2r+1 <= n <= 3r-2 (K(7,3), K(9,4)) and
        # outside it (K(4,2), K(8,3), K(11,4))
        rng = random.Random(606)
        verdicts = set()
        for n, r in [(4, 2), (7, 3), (8, 3), (9, 4), (11, 4)]:
            p = KneserParams(n, r)
            pool = vertices(p)
            for _ in range(40):
                members = rng.sample(pool, rng.randint(2, min(6, len(pool))))
                S = VertexFamily(p, tuple(members))
                violation, checked = None, 0
                for u, v in combinations(members, 2):
                    checked += 1
                    if distance_at_most_2(u, v, p):
                        violation = (u, v)
                        break
                report = verify_2_packing(S)
                assert report.valid == (violation is None), (n, r)
                assert report.witness_violation == violation
                assert report.checked_count == checked
                verdicts.add(report.valid)
        assert verdicts == {True, False}

    def test_mutated_recorded_packing_fails(self):
        # swap one element of the first recorded K(12,5) member
        from kneserdom import TABLE3_PACKINGS

        sets = [list(s) for s in TABLE3_PACKINGS[5]]
        assert sets[0] == [1, 2, 3, 4, 8]
        sets[0] = [1, 2, 3, 4, 10]
        report = verify_2_packing(fam(12, 5, *sets))
        assert not report.valid
        assert isinstance(report.witness_violation, tuple)


def _reference_2_packing(S):
    """The first pair (in `combinations` order) whose intersection size is
    not allowed, or None, and the number of pairs up to it, from the
    intersections one pair at a time."""
    allowed = packing_intersections(S.params)
    checked = 0
    for (i, j), size in pairwise_intersections(S).items():
        checked += 1
        if size not in allowed:
            return (S.members[i], S.members[j]), checked
    return None, checked


def _matching_half(r):
    """The r-sets of [2r] through element 1: one end of every edge of the
    perfect matching K(2r,r)."""
    params = KneserParams(2 * r, r)
    return VertexFamily(params, tuple(
        Vertex(m) for m in params.vertex_masks() if m & 1))


def _valid_packings():
    yield from (table3_packing(r) for r in range(4, 9))
    yield from (_matching_half(r) for r in range(2, 6))
    yield rho3_witness(5, 2)
    yield rho4_witness(9, 3)
    yield block_packing(8, 3, 5)


class TestTwoPackingRows:
    """The row-at-a-time verifier against the pair-by-pair reference: the
    same violating pair and the same `checked_count`, exactly."""

    def _agrees(self, S):
        report = verify_2_packing(S)
        violation, checked = _reference_2_packing(S)
        assert report.witness_violation == violation
        assert report.checked_count == checked
        return report

    def test_valid_families(self):
        for S in _valid_packings():
            report = self._agrees(S)
            assert report.valid
            assert report.checked_count == len(S) * (len(S) - 1) // 2

    @pytest.mark.parametrize("r,t,size,rounds,seed", [
        (6, 3, 4, 1, 1), (9, 4, 4, 3, 4), (8, 3, 5, 1, 6), (16, 5, 5, 3, 8),
    ])
    def test_perturbed_families(self, r, t, size, rounds, seed):
        S = perturb_packing(block_packing(r, t, size), random.Random(seed),
                            rounds)
        assert self._agrees(S).valid

    def test_invalid_families(self):
        # random families, and valid ones with one member moved, one member
        # added that clashes with the last member alone, or reversed with
        # such a member first
        rng = random.Random(2107)
        invalid = clashes = 0
        for n, r in [(7, 3), (9, 4), (10, 4), (12, 5), (8, 3), (4, 2)]:
            pool = vertices(KneserParams(n, r))
            for _ in range(30):
                members = rng.sample(pool, rng.randint(2, min(12, len(pool))))
                invalid += not self._agrees(
                    VertexFamily(KneserParams(n, r), tuple(members))).valid
        for S in _valid_packings():
            allowed = packing_intersections(S.params)
            masks = list(S.member_masks())
            n, r = S.params.n, S.params.r
            draws = [Vertex.from_elements(rng.sample(range(1, n + 1), r)).mask
                     for _ in range(500)]
            fresh = [m for m in draws if m not in masks]
            for m in fresh[:5]:
                moved = list(masks)
                moved[rng.randrange(len(moved))] = m
                invalid += not self._agrees(VertexFamily(
                    S.params, tuple(Vertex(x) for x in moved))).valid
            clash = next((m for m in fresh
                          if (m & masks[-1]).bit_count() not in allowed
                          and all((m & u).bit_count() in allowed
                                  for u in masks[:-1])), None)
            if clash is not None:
                clashes += 1
                for order in (masks + [clash], [clash] + masks[::-1]):
                    report = self._agrees(VertexFamily(
                        S.params, tuple(Vertex(x) for x in order)))
                    assert not report.valid
                    invalid += 1
        assert invalid > 100 and clashes >= 5


class TestDelsarteDual:
    """`check_delsarte_dual` on hand-made duals of K(15,6), whose LP bound
    10 the vector (9, 0, 0, 0, 0, 0) proves."""

    PARAMS = KneserParams(15, 6)
    DUAL = [Fraction(9)] + [Fraction(0)] * 5

    def test_accepts_the_proof(self):
        check_delsarte_dual(self.PARAMS, self.DUAL, Fraction(10))

    @pytest.mark.parametrize("dual,bound,message", [
        ([Fraction(9)] + [Fraction(0)] * 4, 10, "not a nonnegative vector"),
        ([Fraction(10), Fraction(-1)] + [Fraction(0)] * 4, 10,
         "not a nonnegative vector"),
        ([Fraction(8)] + [Fraction(0)] * 5, 9, "constraint of distance 4"),
        ([Fraction(9)] + [Fraction(0)] * 5, 9, "not 1 \\+ the sum"),
    ])
    def test_rejects(self, dual, bound, message):
        with pytest.raises(InternalCheckError, match=message):
            check_delsarte_dual(self.PARAMS, dual, Fraction(bound))


class TestDispatch:
    def test_verify_routes_by_kind(self):
        assert verify(PETERSEN_GAMMA2, InvariantKind.K_DOMINATION, 2).valid
        S = fam(7, 3, [1, 2, 3], [1, 4, 5])
        assert verify(S, InvariantKind.TWO_PACKING).valid

    def test_report_invariants(self):
        report = verify(PETERSEN_GAMMA2, KD, 2)
        assert report.kind is InvariantKind.K_DOMINATION
        assert report.k == 2
        assert report.checked_count == 6  # 10 vertices minus 4 members


KINDS = (KD, KT, KTT)


def _agrees_with_reference(D):
    """Compare every defined (kind, k <= 3) report with the vertex-by-vertex
    one; return the verdicts seen."""
    verdicts = set()
    for kind in KINDS:
        for k in (1, 2, 3):
            if not is_defined(D.params, kind, k):
                continue
            report = verify(D, kind, k)
            assert report == reference_domination_report(D, kind, k), (
                D.as_sets(), kind, k)
            verdicts.add(report.valid)
    return verdicts


def _drops(D):
    """D, then D without each of its members in turn."""
    yield D
    for i in range(len(D)):
        yield VertexFamily(D.params, D.members[:i] + D.members[i + 1:])


class TestAgainstNeighborCounts:
    """The class walk against the definitions, vertex by vertex: the same
    verdict, colex-first violation and checked count."""

    @pytest.mark.parametrize("n,r,seed", [(6, 2, 707), (7, 3, 808)])
    def test_random_families(self, n, r, seed):
        rng = random.Random(seed)
        p = KneserParams(n, r)
        pool = vertices(p)
        for _ in range(40):
            D = VertexFamily(p, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            for kind in KINDS:
                for k in (1, 2, 3):
                    report = verify(D, kind, k)
                    assert report == reference_domination_report(D, kind, k)
                    if report.valid:
                        exempt = kind is InvariantKind.K_DOMINATION
                        checked = report.checked_count
                        assert checked == len(pool) - (len(D) if exempt else 0)

    @pytest.mark.parametrize("k,r,n", [
        (1, 2, 6), (2, 2, 8), (2, 2, 10), (3, 2, 10), (1, 3, 12), (2, 3, 15),
        (2, 3, 17),
    ])
    def test_clique_and_its_drops(self, k, r, n):
        # coarse atoms: each member is an atom, beside the n - r(k+r)
        # elements outside them all
        verdicts = set()
        for D in _drops(disjoint_clique(k, r, n)):
            verdicts |= _agrees_with_reference(D)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_boundary_family_and_its_drops(self, k, r):
        verdicts = set()
        for D in _drops(gamma_kt_boundary(k, r)):
            verdicts |= _agrees_with_reference(D)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n,r", [(5, 2), (7, 2), (7, 3), (9, 3)])
    def test_stars(self, n, r):
        # the vertices through element 1, whole and cut down: one atom
        # shared by every member
        p = KneserParams(n, r)
        star = [v for v in vertices(p) if 1 in v.elements]
        verdicts = set()
        for size in range(1, len(star) + 1):
            verdicts |= _agrees_with_reference(VertexFamily(p, tuple(star[:size])))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n,r,seed", [(9, 3, 909), (10, 3, 1010)])
    def test_small_random_families(self, n, r, seed):
        # up to a fifth of the vertices: from few large atoms to many small
        rng = random.Random(seed)
        p = KneserParams(n, r)
        pool = vertices(p)
        verdicts = set()
        for _ in range(30):
            members = rng.sample(pool, rng.randint(1, len(pool) // 5))
            verdicts |= _agrees_with_reference(VertexFamily(p, tuple(members)))
        assert verdicts == {True, False}
