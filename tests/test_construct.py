"""Tests for the witness constructions, lifts, and packing normalization."""

import hashlib
import random
from importlib import resources
from itertools import combinations

import pytest

from kneserdom import (
    InvariantKind,
    KneserParams,
    ParameterError,
    VertexFamily,
    diagonal_lift,
    disjoint_clique,
    doubling_lift,
    gamma_kt_boundary,
    normalize_packing,
    rho3_witness,
    rho4_witness,
    table3_packing,
    verify,
    verify_2_packing,
)

from helpers import block_packing, pairwise_intersections, perturb_packing


class TestDisjointClique:
    @pytest.mark.parametrize("k,r", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 2)])
    def test_is_k_tuple_total_dominating(self, k, r):
        D = disjoint_clique(k, r, r * (k + r))
        assert len(D) == k + r
        assert verify(D, InvariantKind.K_TUPLE_TOTAL, k).valid
        assert verify(D, InvariantKind.K_TUPLE, k).valid
        assert verify(D, InvariantKind.K_DOMINATION, k).valid

    def test_is_a_clique(self):
        D = disjoint_clique(2, 2, 8)
        for u, v in combinations(D.members, 2):
            assert (u.mask & v.mask).bit_count() == 0

    def test_slack_n(self):
        D = disjoint_clique(2, 2, 11)
        assert D.params.n == 11
        assert verify(D, InvariantKind.K_TUPLE_TOTAL, 2).valid

    def test_n_too_small_rejected(self):
        with pytest.raises(ParameterError):
            disjoint_clique(2, 2, 7)


class TestBoundary:
    @pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (2, 3)])
    def test_is_k_tuple_total_dominating(self, k, r):
        D = gamma_kt_boundary(k, r)
        assert D.params.n == r * (k + r) - 1
        assert len(D) == k + r + 1
        assert verify(D, InvariantKind.K_TUPLE_TOTAL, k).valid

    def test_contains_no_clique_of_required_size(self):
        # at n = r(k+r)-1 no k+r pairwise-disjoint r-sets fit
        D = gamma_kt_boundary(2, 2)
        k_plus_r = 4
        for sub in combinations(D.members, k_plus_r):
            assert any(u.mask & v.mask for u, v in combinations(sub, 2))

    def test_k1_rejected(self):
        with pytest.raises(ParameterError):
            gamma_kt_boundary(1, 3)


class TestRho3Witness:
    @pytest.mark.parametrize(
        "r,t", [(3, 2), (5, 2), (7, 2), (10, 3), (15, 4), (20, 5), (25, 6)]
    )
    def test_valid_2_packing(self, r, t):
        S = rho3_witness(r, t)
        assert S.params == KneserParams(3 * r - t, r)
        assert len(S) == 3
        assert verify_2_packing(S).valid

    def test_intersection_shape(self):
        S = rho3_witness(10, 3)
        u1, u2, u3 = S.members
        assert (u1.mask & u2.mask).bit_count() == 2  # = t-1
        assert (u1.mask & u3.mask).bit_count() == 1
        assert (u2.mask & u3.mask).bit_count() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            rho3_witness(3, 3)  # t = r
        with pytest.raises(ParameterError):
            rho3_witness(5, 1)


class TestRho4Witness:
    @pytest.mark.parametrize("r,t", [(9, 3), (14, 4), (18, 5), (19, 5)])
    def test_valid_2_packing(self, r, t):
        S = rho4_witness(r, t)
        assert len(S) == 4
        assert verify_2_packing(S).valid
        for u, v in combinations(S.members, 2):
            assert (u.mask & v.mask).bit_count() == t - 1

    @pytest.mark.parametrize("r,t", [(8, 3), (10, 3), (5, 2)])
    def test_out_of_range_rejected(self, r, t):
        with pytest.raises(ParameterError):
            rho4_witness(r, t)

    def test_is_the_four_member_block_packing(self):
        # every valid (r, t) with r < 60: (9/2)(t-1) <= r < 5(t-1)
        valid = [(r, t) for r in range(60) for t in range(2, r)
                 if 9 * (t - 1) <= 2 * r < 10 * (t - 1)]
        assert len(valid) == 37
        for r, t in valid:
            assert (rho4_witness(r, t).member_masks()
                    == block_packing(r, t, 4).member_masks()), (r, t)


class TestDoublingLift:
    def test_k73_to_k115(self):
        base = rho3_witness(3, 2)  # K(7,3), but any odd-graph packing works
        assert base.params.n == 7
        lifted = doubling_lift(base, 2)
        assert lifted.params == KneserParams(11, 5)
        assert len(lifted) == 6
        assert verify_2_packing(lifted).valid

    def test_iterated(self):
        base = rho3_witness(3, 2)
        once = doubling_lift(base, 2)
        twice = doubling_lift(once, 2)  # K(11,5) is again an odd graph
        assert twice.params == KneserParams(15, 7)
        assert len(twice) == 12
        assert verify_2_packing(twice).valid

    def test_requires_odd_graph(self):
        with pytest.raises(ParameterError):
            doubling_lift(table3_packing(5), 2)  # K(12,5) is not K(2r+1,r)

    def test_requires_a_at_least_2(self):
        with pytest.raises(ParameterError):
            doubling_lift(rho3_witness(3, 2), 1)


class TestDiagonalLift:
    @pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
    def test_lifts_recorded_packings(self, r):
        S = table3_packing(r)
        lifted = diagonal_lift(S)
        assert lifted.params == KneserParams(3 * r - 2, r + 1)
        assert len(lifted) == len(S)
        assert verify_2_packing(lifted).valid

    def test_shifts_intersections_by_one(self):
        S = table3_packing(5)
        lifted = diagonal_lift(S)
        before = pairwise_intersections(S)
        after = pairwise_intersections(lifted)
        assert after == {key: val + 1 for key, val in before.items()}

    def test_rejects_below_odd_graph(self):
        with pytest.raises(ParameterError):
            diagonal_lift(
                VertexFamily.from_sets(KneserParams(6, 3), [[1, 2, 3]])
            )


class TestNormalize:
    def test_fixed_point(self):
        S = rho4_witness(9, 3)  # all occurrences <= 2 already
        assert max(S.occurrences) <= 2
        out = normalize_packing(S)
        assert out.members == S.members

    @pytest.mark.parametrize(
        "r,t,size,rounds,seed",
        [
            (6, 3, 4, 1, 1),
            (7, 3, 4, 2, 2),
            (8, 3, 4, 1, 3),
            (9, 4, 4, 3, 4),
            (9, 4, 4, 1, 5),
            (8, 3, 5, 1, 6),
            (12, 4, 5, 2, 7),
            (16, 5, 5, 3, 8),
        ],
    )
    def test_perturbed_corpus(self, r, t, size, rounds, seed):
        base = block_packing(r, t, size)
        rng = random.Random(seed)
        messy = perturb_packing(base, rng, rounds)
        assert max(messy.occurrences) >= 3
        out = normalize_packing(messy)
        assert max(out.occurrences) <= 2
        assert len(out) == len(messy)
        assert verify_2_packing(out).valid
        # every pairwise intersection cardinality survives, member by member
        assert pairwise_intersections(out) == pairwise_intersections(messy)

    @pytest.mark.parametrize("size,held,count", [
        (4, 3, 54), (4, 4, 43), (5, 3, 11), (5, 4, 6), (5, 5, 1),
    ])
    def test_element_held_by_several_members(self, size, held, count):
        """Element 1 held by `held` members of a block packing, for every
        (r, t) with r < 30 where the blocks fit and normalization applies."""
        fitted = []
        for r in range(3, 30):
            for t in range(2, r):
                if (size - 1) * t > r + size - 1:
                    continue
                try:
                    S = block_packing(r, t, size, held)
                except AssertionError:  # the blocks do not fit on [n]
                    continue
                fitted.append((r, t))
                out = normalize_packing(S)
                assert max(out.occurrences) <= 2, (r, t)
                assert verify_2_packing(out).valid, (r, t)
                assert pairwise_intersections(out) == pairwise_intersections(S)
        assert len(fitted) == count
        if (size, held) == (5, 4):
            assert fitted == [(16, 5), (20, 6), (24, 7), (25, 7), (28, 8),
                              (29, 8)]

    def test_rejects_non_packing(self):
        bad = VertexFamily.from_sets(
            KneserParams(15, 6),
            [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12],
             [1, 7, 13, 14, 15, 2], [1, 8, 13, 3, 9, 4]],
        )
        with pytest.raises(ParameterError):
            normalize_packing(bad)

    def test_rejects_wrong_size(self):
        S = rho3_witness(10, 3)
        with pytest.raises(ParameterError):
            normalize_packing(S)

    def test_rejects_t_out_of_range(self):
        # size 4 with 3t > r+3
        S = block_packing(6, 3, 4)
        lifted = VertexFamily.from_sets(
            KneserParams(14, 6), S.as_sets()
        )
        with pytest.raises(ParameterError):
            normalize_packing(lifted)


class TestRecordedPackings:
    @pytest.mark.parametrize(
        "r,size", [(4, 12), (5, 12), (6, 10), (7, 6), (8, 5)]
    )
    def test_valid_with_expected_sizes(self, r, size):
        S = table3_packing(r)
        assert S.params == KneserParams(3 * r - 3, r)
        assert len(S) == size
        assert verify_2_packing(S).valid

    def test_unknown_r_rejected(self):
        with pytest.raises(ParameterError):
            table3_packing(9)

    def test_data_file_is_pinned(self):
        raw = (
            resources.files("kneserdom") / "data" / "table3.json"
        ).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        assert digest == (
            "7f3c98f47dcb84cd49076edb1b02f5212ced40515d2242d55c41ad298b658496"
        )
