"""Tests for the exact solvers and the brute-force oracle."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kneserdom
from kneserdom import (
    CapacityError,
    InvariantKind,
    KneserParams,
    ParameterError,
    SolveStatus,
    SolverConfig,
    brute_force_domination,
    solve_domination,
    solve_rho2,
    threshold_prediction_by_n,
    threshold_predictions,
    verify,
    verify_2_packing,
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

    def test_by_n_agrees_with_by_t(self):
        for r in range(3, 101):
            for n in range(2 * r + 1, 3 * r - 1):
                t = 3 * r - n
                assert threshold_prediction_by_n(n, r) == threshold_predictions(r, t), (n, r)

    def test_by_n_outside_band(self):
        assert threshold_prediction_by_n(8, 3) is None  # n > 3r-2
        assert threshold_prediction_by_n(6, 3) is None  # n < 2r+1


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
    def test_clique_regime_value(self, k, r, n):
        # n >= r(k+r): all three invariants equal k+r
        assert n >= r * (k + r)
        for kind in (KD, KT, KTT):
            res = dom(n, r, kind, k)
            assert res.value == k + r, (kind, res.value)

    def test_clique_witness_shape(self):
        res = dom(10, 2, KTT, 3)
        members = res.witness.members
        assert len(members) == 5
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert u.intersection_size(v) == 0

    @pytest.mark.parametrize("k,r", [(2, 2), (3, 2)])
    def test_boundary_value(self, k, r):
        # n = r(k+r)-1: the k-tuple total number rises to k+r+1
        n = r * (k + r) - 1
        assert dom(n, r, KTT, k).value == k + r + 1


class TestOracleAgreement:
    # k = 3 only where the optimum stays inside the oracle's size guard
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in (4, 5, 6, 7) for k in (1, 2)],
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

    def test_oracle_guard(self):
        with pytest.raises(CapacityError):
            brute_force_domination(KneserParams(10, 2), KD, 1)


class TestSolverOptions:
    def test_no_symmetry_same_values(self):
        for kind in (KD, KT, KTT):
            with_sym = dom(6, 2, kind, 2, symmetry_breaking=True)
            without = dom(6, 2, kind, 2, symmetry_breaking=False)
            assert with_sym.value == without.value

    def test_vertex_ceiling_enforced(self):
        with pytest.raises(CapacityError):
            dom(9, 2, KD, 1, vertex_ceiling=10)

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(timeout=0)
        with pytest.raises(ParameterError):
            SolverConfig(timeout=float("nan"))  # would never expire

    def test_rho2_not_accepted(self):
        with pytest.raises(ParameterError):
            solve_domination(KneserParams(5, 2), InvariantKind.TWO_PACKING, 1)


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

    def test_search_agrees_without_symmetry(self):
        a = solve_rho2(KneserParams(9, 4), SolverConfig(symmetry_breaking=True))
        b = solve_rho2(KneserParams(9, 4), SolverConfig(symmetry_breaking=False))
        assert a.value == b.value == 12


class TestTimeout:
    def test_domination_timeout_returns_bracket(self):
        res = dom(10, 3, KTT, 3, timeout=0.02)
        if res.status is SolveStatus.BOUNDS:
            assert res.value is None
            assert res.lower_bound <= res.upper_bound
            assert verify(res.witness, KTT, 3).valid
        else:  # a fast machine may close it; then the answer must be exact
            assert res.optimal

    def test_rho2_timeout_returns_bracket(self):
        res = solve_rho2(KneserParams(11, 5), SolverConfig(timeout=0.05))
        if res.status is SolveStatus.BOUNDS:
            assert res.lower_bound <= res.upper_bound
            assert verify_2_packing(res.witness).valid
        else:
            assert res.value == 66


def test_witness_check_runs_under_optimize():
    """An invalid witness raises even when python -O strips asserts."""
    script = textwrap.dedent("""
        if __debug__:
            raise SystemExit("not running under -O")
        import kneserdom.solve as solve
        from kneserdom import (
            InternalCheckError, InvariantKind, KneserParams, VerificationReport,
        )

        def always_invalid(family, kind, k=0, ceiling=None):
            return VerificationReport(False, kind, k, family.members[0], 1)

        solve.verify = always_invalid
        try:
            res = solve.solve_domination(
                KneserParams(5, 2), InvariantKind.K_DOMINATION, 2)
        except InternalCheckError as exc:
            print("raised:", exc)
        else:
            print("returned", res.status.value, res.value)
    """)
    src = str(Path(kneserdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: solver produced an invalid witness"
