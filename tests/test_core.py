"""Tests for the Kneser-graph data model."""

import copy
import pickle
import random
from itertools import combinations
from math import comb

import pytest

from kneserdom import (
    InvariantKind,
    KneserParams,
    ParameterError,
    SolveResult,
    SolverConfig,
    VerificationReport,
    Vertex,
    VertexFamily,
    table3_packing,
)
from kneserdom.core import capped_comb

from helpers import (
    closed_neighbor_count,
    distance_at_most_2,
    open_neighbor_count,
    vertices,
)


def K(n, r):
    return KneserParams(n, r)


def fam(n, r, *sets):
    return VertexFamily.from_sets(K(n, r), sets)


def V(*elements):
    return Vertex.from_elements(elements)


class TestKneserParams:
    def test_basic_quantities(self):
        p = K(5, 2)
        assert p.vertex_count == 10
        assert capped_comb(5 - 2, 2, 10) == 3  # the degree: Petersen is cubic

    def test_k_2r_allowed(self):
        p = K(6, 3)
        assert p.vertex_count == 20
        assert capped_comb(6 - 3, 3, 10) == 1  # a perfect matching

    @pytest.mark.parametrize("n,r", [(3, 2), (5, 3), (0, 1), (4, 0),
                                     # not ints, though 7.0 == 7 and True == 1
                                     (7.0, 3), (7, 3.0), (True, 1), (7, True),
                                     ("7", 3), (None, 3)])
    def test_rejects_bad_parameters(self, n, r):
        with pytest.raises(ParameterError):
            K(n, r)

    @pytest.mark.parametrize("n,r", [(100, 50), (20001, 10000),
                                     (1000000, 300000), (4000, 1000)])
    def test_capacity_guard(self, monkeypatch, n, r):
        from kneserdom import CapacityError

        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", str(10**6))
        with pytest.raises(CapacityError,
                           match=rf"^K\({n},{r}\) has C\({n},{r}\) vertices, "
                                 r"exceeding the ceiling of 1000000$"):
            K(n, r).check_capacity()
        K(10, 3).check_capacity()

    @pytest.mark.parametrize("n", range(13))
    def test_capped_comb(self, n):
        """min(C(n, r), cap + 1) for every r in 0..n and every cap around
        the binomial."""
        for r in range(n + 1):
            exact = comb(n, r)
            for cap in range(max(0, exact - 2), exact + 3):
                assert capped_comb(n, r, cap) == min(exact, cap + 1)

    def test_vertex_ceiling_env(self, monkeypatch):
        from kneserdom import CapacityError
        from kneserdom.core import default_vertex_ceiling

        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", "10")
        assert default_vertex_ceiling() == 10
        with pytest.raises(CapacityError):
            K(6, 2).check_capacity()

    def test_colex_enumeration(self):
        p = K(5, 2)
        verts = vertices(p)
        assert len(verts) == 10
        assert verts[0].elements == (1, 2)
        assert verts[1].elements == (1, 3)
        assert verts[2].elements == (2, 3)
        assert verts[-1].elements == (4, 5)
        masks = [v.mask for v in verts]
        assert masks == sorted(masks)  # colex = increasing mask order


class TestVertex:
    def test_roundtrip(self):
        v = V(2, 5, 7)
        assert v.elements == (2, 5, 7)
        assert v.mask.bit_count() == 3

    def test_duplicate_element_rejected(self):
        with pytest.raises(ParameterError):
            V(1, 1, 2)

    def test_validate_for(self):
        V(1, 2).validate_for(K(5, 2))
        with pytest.raises(ParameterError):
            V(1, 2, 3).validate_for(K(5, 2))
        with pytest.raises(ParameterError):
            V(1, 6).validate_for(K(5, 2))

    def test_ordering_is_colex(self):
        assert V(4, 5) > V(1, 2, 3)  # mask order, not size or lex


class TestNeighborCounts:
    def test_closed_self_only(self):
        u = V(1, 2)
        D = fam(5, 2, [1, 2])
        assert closed_neighbor_count(u, D) == 1
        assert open_neighbor_count(u, D) == 0

    def test_closed_examples_k52(self):
        u = V(1, 2)
        assert closed_neighbor_count(u, fam(5, 2, [3, 4], [3, 5], [4, 5])) == 3
        assert closed_neighbor_count(u, fam(5, 2, [1, 2], [2, 3])) == 1

    def test_open_examples_k52(self):
        u = V(1, 2)
        assert open_neighbor_count(u, fam(5, 2, [3, 4], [3, 5])) == 2
        assert open_neighbor_count(u, fam(5, 2, [1, 2], [3, 4])) == 1

    def test_closed_equals_open_plus_membership(self):
        rng = random.Random(11)
        pool = vertices(K(6, 2))
        for _ in range(30):
            members = rng.sample(pool, rng.randint(1, 8))
            D = VertexFamily(K(6, 2), tuple(members))
            for u in pool:
                member_bump = 1 if u in D else 0
                assert closed_neighbor_count(u, D) == (
                    open_neighbor_count(u, D) + member_bump
                )


class TestVertexFamily:
    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            fam(5, 2, [1, 2], [2, 1])

    def test_occurrence_identity(self):
        rng = random.Random(3)
        pool = vertices(K(7, 3))
        for _ in range(40):
            members = rng.sample(pool, rng.randint(0, 10))
            D = VertexFamily(K(7, 3), tuple(members))
            assert sum(D.occurrences) == 3 * len(D)

    def test_occurrence_counts_match_definition(self):
        D = fam(5, 2, [1, 2], [1, 3], [4, 5])
        assert D.occurrences == (2, 1, 1, 1, 1)

    def test_recorded_packing_r4_occurrences(self):
        # 12 four-sets over [9]: 48 occurrence slots, each element 5 or 6.
        D = table3_packing(4)
        assert sum(D.occurrences) == 48
        assert set(D.occurrences) == {5, 6}


class TestRecords:
    """The plain-class records: == and hash by field, the repr, mask order
    for Vertex, and no assignment to a frozen record."""

    def test_equal_records_hash_equal(self):
        a = fam(7, 3, [1, 2, 3], [1, 4, 5])
        b = fam(7, 3, [1, 2, 3], [1, 4, 5])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != fam(7, 3, [1, 4, 5], [1, 2, 3])  # members are ordered
        assert len({K(7, 3), K(7, 3), K(9, 4)}) == 2
        r1 = VerificationReport(InvariantKind.TWO_PACKING, 0, (V(1), V(1, 2)), 3)
        r2 = VerificationReport(InvariantKind.TWO_PACKING, 0, (V(1), V(1, 2)), 3)
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1 != VerificationReport(InvariantKind.TWO_PACKING, 0, None, 3)
        assert SolverConfig() == SolverConfig(60.0, True)
        assert hash(SolverConfig(5.0)) == hash(SolverConfig(timeout=5.0))
        assert K(7, 3) != (7, 3) and V(1) != 1  # other types are unequal

    def test_vertices_sort_by_mask(self):
        vs = [V(4, 5), V(1, 2, 3), V(2, 3), V(1, 3)]
        assert sorted(vs) == [V(1, 3), V(2, 3), V(1, 2, 3), V(4, 5)]
        assert V(1, 3) < V(2, 3) and not V(2, 3) < V(1, 3)
        assert min(vs) == V(1, 3) and max(vs) == V(4, 5)
        with pytest.raises(TypeError):
            V(1) < 1

    @pytest.mark.parametrize("record,field", [
        (K(7, 3), "n"),
        (V(1, 2), "mask"),
        (fam(5, 2, [1, 2]), "members"),
        (VerificationReport(InvariantKind.K_DOMINATION, 1, None, 10), "k"),
        (SolverConfig(), "timeout"),
    ])
    def test_frozen_records_reject_assignment(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.other = 1
        assert getattr(record, field) == before

    @pytest.mark.parametrize("record", [
        K(7, 3),
        fam(5, 2, [1, 2], [3, 4]),
        VerificationReport(InvariantKind.TWO_PACKING, 0, (V(1), V(1, 2)), 3),
        SolverConfig(2.5, False),
        SolveResult(3, 5, fam(5, 2, [1, 2]), 4, 0.5),
    ])
    def test_pickle_and_copy_rebuild_records(self, record):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record and copy.copy(record) == record

    def test_solver_config_defaults(self):
        config = SolverConfig()
        assert (config.timeout, config.symmetry_breaking) == (60.0, True)

    def test_solve_result_defaults_and_equality(self):
        res = SolveResult(3, 5)
        assert (res.witness, res.nodes, res.wall_time) == (None, 0, 0.0)
        assert res == SolveResult(3, 5, None, 0, 0.0)
        assert res != SolveResult(3, 5, nodes=1)
        with pytest.raises(TypeError):
            hash(res)
        res.nodes = 7  # a result is mutable
        assert res == SolveResult(3, 5, nodes=7)

    def test_repr_names_the_fields(self):
        assert repr(K(7, 3)) == "KneserParams(n=7, r=3)"
        assert repr(V(1, 4)) == "Vertex(1, 4)"
        assert repr(fam(5, 2, [1, 2])) == (
            "VertexFamily(params=KneserParams(n=5, r=2), members=(Vertex(1, 2),))")
        assert repr(SolveResult(3, 5)) == (
            "SolveResult(lower_bound=3, upper_bound=5, witness=None, nodes=0, "
            "wall_time=0.0)")


def _has_common_neighbor_brute(u, v, params):
    return any(
        (w.mask & u.mask) == 0 and (w.mask & v.mask) == 0
        for w in vertices(params)
    )


class TestDistance:
    def test_adjacent_pair(self):
        assert distance_at_most_2(V(1, 2), V(3, 4), K(5, 2))

    def test_k73_pair_without_common_neighbor(self):
        p = K(7, 3)
        u, v = V(1, 2, 3), V(1, 4, 5)
        assert u.mask & v.mask
        assert not _has_common_neighbor_brute(u, v, p)
        assert not distance_at_most_2(u, v, p)

    def test_k94_recorded_pair(self):
        # first two members of the recorded K(9,4) packing share two elements
        p = K(9, 4)
        u, v = V(1, 2, 3, 5), V(1, 2, 6, 9)
        assert (u.mask & v.mask).bit_count() == 2
        assert not distance_at_most_2(u, v, p)

    def test_identical_vertices_rejected(self):
        with pytest.raises(ParameterError):
            distance_at_most_2(V(1, 2), V(1, 2), K(5, 2))

    def test_matches_brute_force_on_k73(self):
        p = K(7, 3)
        for u, v in combinations(vertices(p), 2):
            adjacent = (u.mask & v.mask) == 0
            expected = adjacent or _has_common_neighbor_brute(u, v, p)
            assert distance_at_most_2(u, v, p) == expected

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 4)])
    def test_intersection_band_equivalence(self, n, r):
        # inside 2r+1 <= n <= 3r-2, distance >= 3 is exactly
        # 1 <= |u ∩ v| <= 3r-1-n
        p = K(n, r)
        cap = 3 * r - 1 - n
        for u, v in combinations(vertices(p), 2):
            in_band = 1 <= (u.mask & v.mask).bit_count() <= cap
            assert distance_at_most_2(u, v, p) == (not in_band)
