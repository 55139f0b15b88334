import math
import re

import numpy as np
import pytest

from jsrcert.caps import (
    ConfidenceBudget,
    cap_params,
    delta_cap,
    eps_cover,
    eps_one,
    inv_reg_inc_beta,
    min_samples_finite,
    reg_inc_beta,
)


class TestRegIncBeta:
    def test_full_integral_is_one(self):
        for a, b in ((0.5, 0.5), (1.0, 2.0), (3.5, 0.7)):
            assert reg_inc_beta(1.0, a, b) == 1.0
            assert reg_inc_beta(0.0, a, b) == 0.0

    def test_arcsine_half(self):
        assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_density(self):
        assert reg_inc_beta(0.25, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_arcsine_closed_form_grid(self):
        # I(x; 1/2, 1/2) = (2/pi) arcsin(sqrt(x))
        for x in np.linspace(0.01, 0.99, 25):
            expected = 2.0 / math.pi * math.asin(math.sqrt(x))
            assert reg_inc_beta(float(x), 0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_power_law_closed_form(self):
        # I(x; a, 1) = x^a
        for x in (0.1, 0.4, 0.9):
            for a in (0.7, 2.0, 3.5):
                assert reg_inc_beta(x, a, 1.0) == pytest.approx(x**a, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 1.0, 1.0)


class TestInvRegIncBeta:
    def test_boundaries(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_closed_form_b_half(self):
        # I(x; 1, 1/2) = 1 - sqrt(1-x), so the inverse of 0.36 is 0.5904.
        assert inv_reg_inc_beta(0.36, 1.0, 0.5) == pytest.approx(0.5904, abs=1e-12)

    def test_arcsine_symmetry(self):
        assert inv_reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform(0.4, 5.0)
            b = rng.uniform(0.4, 5.0)
            x = rng.uniform(0.0, 1.0)
            y = reg_inc_beta(x, a, b)
            assert inv_reg_inc_beta(y, a, b) == pytest.approx(x, abs=1e-10)

    def test_monotone_in_y(self):
        ys = np.linspace(0.0, 1.0, 41)
        xs = [inv_reg_inc_beta(float(y), 1.7, 0.5) for y in ys]
        assert all(x1 <= x2 + 1e-15 for x1, x2 in zip(xs, xs[1:]))


class TestDeltaCap:
    def test_closed_form_n2(self):
        assert delta_cap(0.25, 2) == pytest.approx(math.cos(math.pi * 0.25), abs=1e-10)

    def test_closed_form_n3(self):
        assert delta_cap(0.1, 3) == pytest.approx(0.8, abs=1e-10)

    def test_zero_beyond_half(self):
        assert delta_cap(0.6, 5) == 0.0
        assert delta_cap(0.5, 2) == 0.0
        assert delta_cap(1.45, 4) == 0.0

    def test_closed_form_grids(self):
        for eps in np.linspace(0.004, 0.496, 100):
            assert delta_cap(float(eps), 2) == pytest.approx(math.cos(math.pi * eps), abs=1e-10)
            assert delta_cap(float(eps), 3) == pytest.approx(1.0 - 2.0 * eps, abs=1e-10)

    def test_monotone_and_limits(self):
        for n in range(2, 7):
            grid = [delta_cap(float(e), n) for e in np.linspace(1e-6, 0.4999, 80)]
            assert all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
            assert grid[0] > 1.0 - 1e-2
            assert delta_cap(0.49999, n) <= 1e-2
            assert delta_cap(0.4999999999, n) <= 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_cap(0.0, 3)
        with pytest.raises(ValueError):
            delta_cap(0.2, 1)

    def test_cap_params_regime_flag(self):
        p = cap_params(0.7, 3)
        assert p.delta == 0.0 and p.delta_zero and p.Delta == pytest.approx(math.sqrt(2.0))
        q = cap_params(0.1, 3)
        assert not q.delta_zero
        assert q.Delta == pytest.approx(math.sqrt(2 - 2 * 0.8), abs=1e-10)


class TestEpsCover:
    def test_reference_value(self):
        assert eps_cover(0.95, 2.0, 3, 1000) == pytest.approx(0.00874487912934252, rel=1e-9)

    def test_degenerate_direct_substitution(self):
        assert eps_cover(0.0, 2.0, 3, 1) == pytest.approx(1.5, rel=1e-12)

    def test_large_trace_regime(self):
        # Above 1/2, so the cap threshold is 0, yet the bound stays finite.
        val = eps_cover(0.95, 125.0, 3, 375)
        assert val == pytest.approx(1.4521743980342312, rel=1e-9)
        assert val > 0.5

    def test_matches_quadratic_formula_symbol_for_symbol(self):
        # With d1 = n(n+1)/2 the unified formula must equal
        # m^l (1 - (2(1-beta)/(n(n+1)+2))^(1/N)).
        for n, beta, ml, N in ((2, 0.9, 4.0, 77), (3, 0.5, 2.0, 13), (4, 0.99, 9.0, 400)):
            d1 = n * (n + 1) // 2
            direct = ml * (1.0 - (2.0 * (1.0 - beta) / (n * (n + 1) + 2)) ** (1.0 / N))
            assert eps_cover(beta, ml, d1, N) == pytest.approx(direct, rel=1e-14)

    def test_monotonicity(self):
        vals_N = [eps_cover(0.95, 2.0, 3, N) for N in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals_N, vals_N[1:]))
        vals_ml = [eps_cover(0.95, ml, 3, 100) for ml in (1.0, 2.0, 8.0, 125.0)]
        assert all(a < b for a, b in zip(vals_ml, vals_ml[1:]))


class TestEpsOne:
    def test_zero_confidence(self):
        assert eps_one(0.0, 3, 2, 50) == 0.0

    def test_reference_values(self):
        assert eps_one(0.95, 5, 3, 375) == pytest.approx(0.49729969852879696, rel=1e-9)
        assert eps_one(0.95, 2, 1, 1000) == pytest.approx(0.0029912495450953314, rel=1e-9)

    def test_mode_count_past_float_range(self):
        # m^l from 2^1024 on has no float: it reads as infinite, and so does the cap.
        assert eps_one(0.95, 2, 1024, 20) == eps_one(0.95, 2, 1100, 20) == math.inf
        assert math.isfinite(eps_one(0.95, 2, 1023, 20))
        assert eps_one(0.0, 2, 1100, 20) == 0.0
        b = ConfidenceBudget(beta=0.95, beta1=0.95, m=2, l=1100, N=20, n=2, d=1)
        assert b.ml == math.inf
        # Where m^l fits, it is the exact power rounded once.
        assert eps_one(0.95, 3, 40, 1000) == 3**40 / 2.0 * (1.0 - 0.05 ** (1.0 / 1000))


class TestMinSamplesFinite:
    def test_five_modes_three_steps(self):
        # Direct evaluation gives 373; a band of [370, 378] absorbs
        # non-strict rounding conventions for the same setting.
        n = min_samples_finite(0.95, 5, 3)
        assert n == 373
        assert eps_one(0.95, 5, 3, n) < 0.5 <= eps_one(0.95, 5, 3, n - 1)

    def test_two_modes_single_step(self):
        assert min_samples_finite(0.95, 2, 1) == 5

    def test_single_mode(self):
        assert min_samples_finite(0.95, 1, 7) == 1

    def test_tiny_confidence(self):
        assert min_samples_finite(1e-9, 3, 2) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            min_samples_finite(0.0, 2, 1)
        with pytest.raises(ValueError):
            min_samples_finite(1.0, 2, 1)

    @pytest.mark.parametrize("m, l", [(2, 26), (2, 40), (3, 30), (2, 52), (3, 33)])
    def test_large_mode_counts_return_the_threshold(self, m, l):
        n = min_samples_finite(0.95, m, l)
        assert eps_one(0.95, m, l, n) < 0.5 <= eps_one(0.95, m, l, n - 1)

    @pytest.mark.parametrize("m, l", [(2, 53), (2, 60), (3, 34), (2, 1100)])
    def test_unresolvable_mode_counts_raise(self, m, l):
        # From m^l = 2^53 on, eps_one cannot resolve its 1/2 threshold.
        with pytest.raises(ValueError, match=rf"m\^l >= 2\^53 \(m={m}, l={l}\)"):
            min_samples_finite(0.95, m, l)

    @pytest.mark.parametrize("m, l", [(0, 1), (-3, 1), (2, 0), (2, -1)])
    def test_rejects_empty_mode_set_or_trace(self, m, l):
        with pytest.raises(ValueError, match="m >= 1 and l >= 1"):
            min_samples_finite(0.95, m, l)


class TestConfidenceBudget:
    def test_derived_quantities(self):
        b = ConfidenceBudget(beta=0.95, beta1=0.95, m=2, l=1, N=100, n=2, d=2)
        assert b.ml == 2.0
        assert b.lift_dim == 3
        assert b.free_vars == 6

    def test_budget_without_growth_rate_cap_rejected(self):
        # eps_one is 0 when (1 - beta1)^(1/N) rounds to 1, and delta_cap refuses 0.
        for beta1, N in ((0.0, 10), (1e-15, 50)):
            assert eps_one(beta1, 2, 1, N) == 0.0
            with pytest.raises(ValueError, match=re.escape(
                    f"beta1={beta1!r} leaves no growth-rate cap at N={N}")):
                ConfidenceBudget(beta=0.95, beta1=beta1, m=2, l=1, N=N, n=2, d=1)
        assert eps_one(1e-15, 2, 1, 10) > 0.0
        ConfidenceBudget(beta=0.95, beta1=1e-15, m=2, l=1, N=10, n=2, d=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceBudget(beta=1.0, beta1=0.5, m=2, l=1, N=10, n=2, d=1)
        with pytest.raises(ValueError):
            ConfidenceBudget(beta=0.5, beta1=0.5, m=0, l=1, N=10, n=2, d=1)
