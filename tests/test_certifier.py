import math

import numpy as np
import pytest

from jsrcert import lmi
from jsrcert.certifier import (
    TIEBREAK_SLACK,
    SolveOptions,
    _bisect_gamma,
    _PairCache,
    _tie_break_cache,
    solve_gamma,
    solve_lambda,
)
from jsrcert.lift import lift_batch, matrix_metrics
from jsrcert.sampling import ModeSet, ObservationSet, simulate

SQRT2 = math.sqrt(2.0)


def make_obs(pairs, l=1):
    X0, XL = zip(*pairs)
    return ObservationSet(l, X0, XL)


def oracle(obs, d, gamma, opts=None):
    """The bisection's feasibility oracle on the sampled system at gamma."""
    opts = opts or SolveOptions()
    cache = _PairCache(obs, d)
    return lmi.max_margin_feasibility(cache.rows(gamma), cache.dim, opts.c_bound)


class TestSolveLambda:
    def test_single_pair(self):
        obs = make_obs([((1.0, 0.0), (1.0, 1.0))])
        assert solve_lambda(obs) == pytest.approx(SQRT2, rel=1e-15)

    def test_zero_images(self):
        obs = make_obs([((1.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 0.0))])
        assert solve_lambda(obs) == 0.0

    def test_simulated_double_identity(self, double_identity):
        obs = simulate(double_identity, 10, 2, seed=4)
        assert solve_lambda(obs) == pytest.approx(4.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_lambda(ObservationSet(1, np.zeros((0, 2)), np.zeros((0, 2))))


class TestAssembleConstraints:
    """Decrease-constraint rows at a fixed gamma, as the bisection builds them."""

    def test_hand_expanded_row(self):
        # v = (1,1), u = (1,0), gamma = 1:
        # v'Pv - u'Pu = (P11 + 2 P12 + P22) - P11 = 2 P12 + P22 <= 0.
        obs = make_obs([((1.0, 0.0), (1.0, 1.0))])
        cache = _PairCache(obs, 1)
        assert cache.dim == 2
        assert np.allclose(cache.rows(1.0), [[0.0, 2.0, 1.0]])

    def test_zero_image_row_vacuous(self):
        obs = make_obs([((1.0, 0.0), (0.0, 0.0))])
        # -gamma^2 * u u^T packed with doubled off-diagonal.
        assert np.allclose(_PairCache(obs, 1).rows(0.7), [[-0.49, 0.0, 0.0]])
        assert oracle(obs, 1, 0.7).feasible

    def test_lift_dimension(self, parrilo):
        obs = simulate(parrilo, 4, 1, seed=0)
        cache = _PairCache(obs, 2)
        assert cache.dim == 3
        assert cache.rows(1.0).shape == (4, 6)


class TestFeasibilityCheck:
    """`lmi.max_margin_feasibility` on the rows the bisection passes it."""

    def test_double_identity_threshold(self, double_identity):
        obs = simulate(double_identity, 12, 1, seed=7)
        assert not oracle(obs, 1, 1.9).feasible
        result = oracle(obs, 1, 2.01)
        assert result.feasible
        assert np.linalg.eigvalsh(result.P)[0] >= 1.0 - 1e-8

    def test_zero_data_feasible_at_zero(self):
        obs = make_obs([((1.0, 0.0), (0.0, 0.0))])
        assert oracle(obs, 1, 0.0).feasible

    def test_witness_satisfies_constraints(self, parrilo):
        obs = simulate(parrilo, 60, 1, seed=21)
        result = oracle(obs, 1, 1.45)
        assert result.feasible
        z = result.P[np.triu_indices(2)]
        assert float(np.max(_PairCache(obs, 1).rows(1.45) @ z)) <= 1e-8

    def test_parrilo_quartic_frozen_verdicts(self, parrilo):
        # Ground truth fixed against an independent interior-point SDP
        # solve: at N=1000 the quartic program is infeasible at 0.7 and
        # feasible at 1.1 for any admissible shape matrix.
        obs = simulate(parrilo, 1000, 1, seed=3)
        assert not oracle(obs, 2, 0.7).feasible
        assert oracle(obs, 2, 1.1).feasible

    def test_monotone_in_gamma_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            mats = tuple(rng.uniform(-1, 1, size=(2, 2)) for _ in range(2))
            obs = simulate(ModeSet(mats), 15, 1, seed=trial)
            gamma_star, _ = solve_gamma(obs, 1)
            grid = np.linspace(0.3, 2.0, 9) * max(gamma_star, 0.1)
            verdicts = [oracle(obs, 1, float(g)).feasible for g in grid]
            # Once feasible, stays feasible as gamma grows.
            first = verdicts.index(True) if True in verdicts else len(verdicts)
            assert all(verdicts[first:])


class TestSolveGamma:
    def test_zero_image_single(self):
        obs = make_obs([((0.0, 1.0), (0.0, 0.0))])
        gamma, cand = solve_gamma(obs, 1)
        assert gamma == 0.0
        assert cand.kappa == pytest.approx(1.0)

    def test_double_identity(self, double_identity):
        obs = simulate(double_identity, 10, 1, seed=7)
        gamma, cand = solve_gamma(obs, 1)
        assert gamma == pytest.approx(2.0, rel=1e-5)
        assert cand.kappa == pytest.approx(1.0, abs=1e-6)

    def test_double_identity_longer_traces(self, double_identity):
        obs = simulate(double_identity, 10, 3, seed=5)
        gamma, _ = solve_gamma(obs, 1)
        assert gamma == pytest.approx(2.0, rel=1e-5)

    def test_parrilo_dense_quadratic(self, parrilo):
        obs = simulate(parrilo, 10_000, 1, seed=11)
        gamma, cand = solve_gamma(obs, 1)
        assert abs(gamma - SQRT2) <= 0.02
        assert cand.kappa <= 1.1

    def test_candidate_invariants(self, parrilo):
        opts = SolveOptions()
        for d in (1, 2):
            obs = simulate(parrilo, 200, 1, seed=5)
            gamma, cand = solve_gamma(obs, d, opts)
            P = cand.P.full()
            assert cand.P.lambda_min >= 1.0 - 1e-8
            assert cand.P.lambda_max <= opts.c_bound * (1.0 + 1e-8)
            U = lift_batch(obs.endpoints()[0], d)
            V = lift_batch(obs.endpoints()[1], d)
            lhs = np.einsum("ij,jk,ik->i", V, P, V)
            rhs = cand.gamma ** (2 * d * obs.l) * np.einsum("ij,jk,ik->i", U, P, U)
            assert np.all(lhs - rhs <= 1e-8 * rhs)

    def test_row_generation_matches_full_lps(self, parrilo, monkeypatch):
        obs = simulate(parrilo, 1000, 1, seed=3)
        gamma, cand = solve_gamma(obs, 1)
        monkeypatch.setattr(lmi, "_ROW_BLOCK", 10**9)
        gamma_full, cand_full = solve_gamma(obs, 1)
        assert gamma == gamma_full
        assert cand.kappa == pytest.approx(cand_full.kappa, rel=1e-8)
        # The rate of the returned P, recomputed over every sample.
        P = cand.P.full()
        ratios = np.einsum("ij,jk,ik->i", obs.XL, P, obs.XL) / np.einsum(
            "ij,jk,ik->i", obs.X0, P, obs.X0
        )
        assert np.sqrt(np.max(ratios)) <= gamma * (1.0 + 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_gamma(ObservationSet(1, np.zeros((0, 2)), np.zeros((0, 2))), 1)

    def test_lift_dimension_cap(self):
        obs = ObservationSet(1, np.eye(6)[:3], np.zeros((3, 6)))
        with pytest.raises(ValueError, match="lift dimension"):
            solve_gamma(obs, 3)

    def test_scaling_covariance(self, parrilo):
        # Scaling every endpoint by c scales gamma*^l by |c| (degree 1).
        for l, c in ((1, 0.5), (1, 3.0), (2, 2.0)):
            obs = simulate(parrilo, 30, l, seed=17)
            scaled = ObservationSet(obs.l, obs.X0, c * obs.XL)
            g_base, _ = solve_gamma(obs, 1)
            g_scaled, _ = solve_gamma(scaled, 1)
            assert g_scaled**l == pytest.approx(c * g_base**l, rel=5e-5)

    def test_nested_monotonicity_quick(self, parrilo):
        opts = SolveOptions()
        big = simulate(parrilo, 40, 1, seed=23)
        small = big.subset(range(20))
        g_small, _ = solve_gamma(small, 1, opts)
        g_big, _ = solve_gamma(big, 1, opts)
        tol = opts.bisection_rel_tol * max(g_big, 1e-12)
        assert g_small <= g_big + 2 * tol

    def test_quadratic_equals_degree_one_lift(self, parrilo):
        # The d=1 "SOS" system is the quadratic system: same rows, same solve.
        obs = simulate(parrilo, 50, 1, seed=29)
        X0, XL = obs.endpoints()
        quad_rows = _PairCache(obs, 1).rows(1.2)
        by_hand = []
        for x0, xl in zip(X0, XL):
            G = np.outer(xl, xl) - 1.2**2 * np.outer(x0, x0)
            iu = np.triu_indices(2)
            row = G[iu] * np.where(iu[0] == iu[1], 1.0, 2.0)
            by_hand.append(row)
        assert np.allclose(quad_rows, by_hand)
        g1, _ = solve_gamma(obs, 1)
        g2, _ = solve_gamma(obs, 1)
        assert g1 == g2


class TestOracleFailureReporting:
    def test_stall_reported_distinctly_from_infeasibility(self, parrilo, monkeypatch):
        from jsrcert.certifier import SolverStallError

        obs = simulate(parrilo, 30, 1, seed=1)
        monkeypatch.setattr(lmi, "_MAX_CUT_ROUNDS", 0)
        with pytest.raises(SolverStallError):
            oracle(obs, 1, 1.2)

    def test_bisection_survives_stall_with_warning(self, parrilo, monkeypatch):
        obs = simulate(parrilo, 30, 1, seed=1)
        monkeypatch.setattr(lmi, "_MAX_CUT_ROUNDS", 0)
        with pytest.warns(RuntimeWarning, match="undecided"):
            gamma, cand = solve_gamma(obs, 1)
        # Every oracle call stalls, so the solve degrades to the always-valid
        # upper bracket with the identity witness.
        assert gamma == pytest.approx(solve_lambda(obs), rel=1e-12)
        assert np.allclose(cand.P.full(), np.eye(2))


def min_lambda_max_unhinted(cache, gamma, opts):
    """The tie-break program at the slackened gamma, with no upper hint.

    `_tie_break_cache` boxes the solve by its witness and falls back to it,
    so its result alone cannot show that the solver finds the optimum.
    """
    rows = cache.rows(gamma * (1.0 + TIEBREAK_SLACK))
    return lmi.min_lambda_max(rows, cache.dim, opts.c_bound)


class TestTieBreak:
    def test_zero_data_returns_identity(self):
        obs = make_obs([((1.0, 0.0), (0.0, 0.0))])
        opts = SolveOptions()
        cache = _PairCache(obs, 1)
        P = min_lambda_max_unhinted(cache, 0.0, opts)
        assert np.allclose(P, np.eye(2))
        assert matrix_metrics(P).kappa == pytest.approx(1.0)
        cand = _tie_break_cache(cache, 0.0, np.eye(2), opts)
        assert np.allclose(cand.P.full(), np.eye(2))
        assert cand.kappa == pytest.approx(1.0)

    def test_double_identity_identity_optimal(self, double_identity):
        obs = simulate(double_identity, 10, 1, seed=7)
        opts = SolveOptions()
        cache = _PairCache(obs, 1)
        gamma, witness = _bisect_gamma(cache, opts)
        P = min_lambda_max_unhinted(cache, gamma, opts)
        assert np.allclose(P, np.eye(2), atol=1e-6)
        assert matrix_metrics(P).kappa == pytest.approx(1.0, abs=1e-6)
        cand = _tie_break_cache(cache, gamma, witness, opts)
        assert cand.kappa == pytest.approx(1.0, abs=1e-6)

    def test_never_worse_than_bisection_witness(self, parrilo):
        obs = simulate(parrilo, 150, 1, seed=19)
        for d in (1, 2):
            gamma, raw = solve_gamma(obs, d, tie_break=False)
            _, tied = solve_gamma(obs, d, tie_break=True)
            assert tied.kappa <= raw.kappa + 1e-6

    def test_sampled_below_whitebox(self, parrilo):
        from jsrcert.oracles import whitebox_gamma

        opts = SolveOptions()
        white = whitebox_gamma(parrilo, 1, 1, grid=360, opts=opts)
        obs = simulate(parrilo, 400, 1, seed=37)
        gamma, _ = solve_gamma(obs, 1, opts)
        assert gamma <= white.gamma + 1e-3
