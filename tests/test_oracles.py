import math

import numpy as np
import pytest

from jsrcert import lmi, oracles
from jsrcert.caps import delta_cap
from jsrcert.certifier import SolveOptions, _bisect_gamma, _PairCache, solve_gamma
from jsrcert.lmi import max_margin_feasibility
from jsrcert.oracles import (
    enumerate_products,
    jsr_lower_bound,
    support_constraints,
    whitebox_gamma,
)
from jsrcert.sampling import ModeSet, ObservationSet, simulate

SQRT2 = math.sqrt(2.0)


def exact_B(modes: ModeSet, l: int) -> float:
    """Largest spectral norm over all length-l mode products."""
    return max(float(np.linalg.norm(A, 2)) for A in enumerate_products(modes, l).matrices)


def cap_measure_mc(c, eps: float, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the uniform measure of the cap C(c, eps)."""
    c = np.asarray(c, dtype=float)
    threshold = delta_cap(eps, c.size)
    G = rng.standard_normal((samples, c.size))
    X = G / np.linalg.norm(G, axis=1, keepdims=True)
    return float(np.count_nonzero(X @ c > threshold)) / samples


class TestProductEnumeration:
    def test_count_and_order(self, parrilo):
        prods = enumerate_products(parrilo, 2)
        assert len(prods.matrices) == 4
        assert prods.sequences == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_application_order(self, parrilo):
        # Sequence (j1, j2) means A_{j2} A_{j1}.
        prods = enumerate_products(parrilo, 2)
        A1, A2 = parrilo.matrices
        by_seq = dict(zip(prods.sequences, prods.matrices))
        assert np.allclose(by_seq[(0, 1)], A2 @ A1)
        assert np.allclose(by_seq[(1, 0)], A1 @ A2)

    def test_cap(self, parrilo):
        with pytest.raises(ValueError, match="cap"):
            enumerate_products(parrilo, 21)


class TestExactB:
    def test_parrilo_single_step(self, parrilo):
        assert exact_B(parrilo, 1) == pytest.approx(SQRT2, rel=1e-12)

    def test_parrilo_two_steps(self, parrilo):
        assert exact_B(parrilo, 2) == pytest.approx(SQRT2, rel=1e-12)

    def test_double_identity_three_steps(self, double_identity):
        assert exact_B(double_identity, 3) == pytest.approx(8.0, rel=1e-12)

    def test_dominates_sampled_lambda(self, parrilo):
        from jsrcert.certifier import solve_lambda

        for l in (1, 2):
            cap = exact_B(parrilo, l)
            obs = simulate(parrilo, 500, l, seed=5)
            assert solve_lambda(obs) <= cap + 1e-12


class TestJsrLowerBound:
    def test_parrilo_products(self, parrilo):
        assert jsr_lower_bound(parrilo, 1) == pytest.approx(1.0, abs=1e-12)
        assert jsr_lower_bound(parrilo, 2) == pytest.approx(1.0, abs=1e-12)
        assert jsr_lower_bound(parrilo, 8) >= 1.0 - 1e-9

    def test_double_identity(self, double_identity):
        assert jsr_lower_bound(double_identity, 3) == pytest.approx(2.0, rel=1e-12)

    def test_enumeration_cap(self, parrilo):
        with pytest.raises(ValueError, match="cap"):
            jsr_lower_bound(parrilo, 25)

    def test_below_whitebox_upper_bound(self, parrilo):
        lower = jsr_lower_bound(parrilo, 6)
        upper = whitebox_gamma(parrilo, 1, 1, grid=240).gamma
        assert lower <= upper + 1e-9


class TestWhiteboxGamma:
    def test_double_identity_any_grid(self, double_identity):
        res = whitebox_gamma(double_identity, 1, 1, grid=90)
        assert res.gamma == pytest.approx(2.0, rel=1e-4)
        assert not res.surrogate

    def test_parrilo_quadratic(self, parrilo):
        res = whitebox_gamma(parrilo, 1, 1, grid=360)
        assert abs(res.gamma - SQRT2) <= 0.01

    def test_quartic_improves_on_quadratic(self, parrilo):
        quad = whitebox_gamma(parrilo, 1, 1, grid=360).gamma
        quart = whitebox_gamma(parrilo, 1, 2, grid=360).gamma
        assert quart <= quad + 1e-9
        assert quart < SQRT2 - 0.05

    def test_surrogate_for_higher_dimension(self):
        modes = ModeSet((0.5 * np.eye(3),))
        res = whitebox_gamma(modes, 1, 1, grid=500)
        assert res.surrogate
        assert res.gamma == pytest.approx(0.5, rel=1e-6)

    def test_surrogate_deterministic(self):
        rng = np.random.default_rng(8)
        modes = ModeSet(tuple(rng.uniform(-1, 1, size=(3, 3)) for _ in range(2)))
        a = whitebox_gamma(modes, 1, 1, grid=300)
        b = whitebox_gamma(modes, 1, 1, grid=300)
        assert a.gamma == b.gamma


class TestSupportConstraints:
    def test_double_identity_single_constraint(self, double_identity):
        obs = simulate(double_identity, 12, 1, seed=3)
        res = support_constraints(obs, 1)
        assert len(res.indices) == 1
        assert res.gamma == pytest.approx(2.0, rel=1e-5)

    def test_all_zero_images_empty_support(self):
        t = np.array([0.0, 1.0, 2.0])
        obs = ObservationSet(1, np.column_stack([np.cos(t), np.sin(t)]), np.zeros((3, 2)))
        res = support_constraints(obs, 1)
        assert res.indices == ()
        assert res.gamma == 0.0

    def test_parrilo_small_sets(self, parrilo):
        opts = SolveOptions()
        for seed in (0, 1, 2):
            obs = simulate(parrilo, 10, 1, seed=seed)
            gamma_full, _ = solve_gamma(obs, 1, opts)
            res = support_constraints(obs, 1, opts)
            assert len(res.indices) <= 4
            tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
            assert res.gamma >= gamma_full - tol

    def test_subset_checks_share_learned_cuts(self, parrilo, monkeypatch):
        seen = []

        def recording(*args):
            dirs = args[-1]
            seen.append((dirs, len(dirs) if isinstance(dirs, list) else 0))
            return max_margin_feasibility(*args)

        monkeypatch.setattr(oracles, "max_margin_feasibility", recording)
        support_constraints(simulate(parrilo, 10, 1, seed=0), 1)
        assert seen
        first, n_first = seen[0]
        assert n_first > 0
        assert all(dirs is first for dirs, _ in seen)

    def test_bisects_on_verdicts_alone(self, parrilo, monkeypatch):
        # The white-box oracles keep only gamma, so they build no witness; on
        # this sample the verdicts alone stop where certify's bisection does.
        obs = simulate(parrilo, 10, 1, seed=0)
        gamma_star, _ = solve_gamma(obs, 1)

        def refuse(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(lmi, "feasibility_witness", refuse)
        support_constraints(obs, 1)
        whitebox_gamma(parrilo, 1, 1, grid=90)
        assert _bisect_gamma(_PairCache(obs, 1), SolveOptions(), witness=False) == (gamma_star, None)

    def test_greedy_mode_matches(self, parrilo):
        opts = SolveOptions()
        obs = simulate(parrilo, 30, 1, seed=9)
        gamma_full, _ = solve_gamma(obs, 1, opts)
        res = support_constraints(obs, 1, opts)
        tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
        assert res.gamma >= gamma_full - tol
        assert len(res.indices) < obs.N

    @pytest.mark.parametrize("d, N", [(1, 10), (2, 20)])
    def test_irreducible_within_helly_bound(self, parrilo, d, N):
        opts = SolveOptions()
        obs = simulate(parrilo, N, 1, seed=4)
        res = support_constraints(obs, d, opts)
        cache = _PairCache(obs, d)
        gamma_full, _ = _bisect_gamma(cache, opts, witness=False)
        tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
        D = cache.dim
        assert 1 <= len(res.indices) <= D * (D + 1) // 2 + 1
        rows = cache.rows(gamma_full - tol)
        for i in res.indices:
            rest = [j for j in res.indices if j != i]
            assert max_margin_feasibility(rows[rest], D, opts.c_bound, cache.dirs).feasible


class TestCapMeasureMC:
    def test_quarter_cap(self):
        rng = np.random.default_rng(55)
        frac = cap_measure_mc(np.array([1.0, 0.0]), 0.25, 100_000, rng)
        assert abs(frac - 0.25) <= 0.006

    def test_hemisphere_regime(self):
        rng = np.random.default_rng(56)
        frac = cap_measure_mc(np.array([0.0, 1.0, 0.0]), 0.7, 100_000, rng)
        assert abs(frac - 0.5) <= 0.007

    def test_small_cap_small_measure(self):
        rng = np.random.default_rng(57)
        frac = cap_measure_mc(np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 100_000, rng)
        assert frac <= 0.015
