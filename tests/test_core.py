"""Tests for the Kneser-graph data model."""

import random
from itertools import combinations

import pytest

from kneserdom import (
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    table3_packing,
)

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
        assert p.min_degree == 3  # Petersen graph is cubic

    def test_k_2r_allowed(self):
        p = K(6, 3)
        assert p.vertex_count == 20
        assert p.min_degree == 1

    @pytest.mark.parametrize("n,r", [(3, 2), (5, 3), (0, 1), (4, 0)])
    def test_rejects_bad_parameters(self, n, r):
        with pytest.raises(ParameterError):
            K(n, r)

    def test_capacity_guard(self, monkeypatch):
        from kneserdom import CapacityError

        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", str(10**6))
        with pytest.raises(CapacityError):
            K(100, 50).check_capacity()
        K(10, 3).check_capacity()

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
