import json
import math

import numpy as np
import pytest

from jsrcert.bounds import CertificateReport, bound_B, combine_bound, f_correction, jsr_upper_bound
from jsrcert.caps import ConfidenceBudget, cap_params, delta_cap, eps_cover, eps_one

SQRT2 = math.sqrt(2.0)


class TestBoundB:
    def test_direct_substitution(self):
        # lambda* = 1.4, delta(eps1) = 0.5, l = 1 -> 2.8.  A cap measure of
        # 0.25 in n=2 has threshold cos(pi/4); use the eps1 giving 0.5
        # instead: delta = 0.5 at eps1 = acos(0.5)/pi = 1/3.
        eps1 = math.acos(0.5) / math.pi
        assert delta_cap(eps1, 2) == pytest.approx(0.5, abs=1e-12)
        assert bound_B(1.4, delta_cap(eps1, 2), 1) == pytest.approx(2.8, rel=1e-9)

    def test_infinite_when_cap_degenerate(self):
        assert math.isinf(bound_B(1.4, delta_cap(0.6, 2), 1))
        assert math.isinf(bound_B(0.0, delta_cap(0.5, 3), 2))

    def test_chained_closed_forms(self):
        # beta1 = 0.95, m = 2, l = 1, N = 1000, n = 2.
        eps1 = eps_one(0.95, 2, 1, 1000)
        assert eps1 == pytest.approx(0.0029912495450953314, rel=1e-9)
        expected = SQRT2 / math.cos(math.pi * eps1)
        value = bound_B(SQRT2, delta_cap(eps1, 2), 1)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.4142760085735802, rel=1e-9)

    def test_l_root_applied(self):
        eps1 = math.acos(0.5) / math.pi
        assert bound_B(1.0, delta_cap(eps1, 2), 2) == pytest.approx(1.0 / 0.5**0.5, rel=1e-9)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            bound_B(-0.1, delta_cap(0.1, 2), 1)


class TestFCorrection:
    def test_degree_one_reduces_to_chord(self):
        for D in (2, 3, 5, 9):
            for Delta in (0.0, 0.1, 0.37, math.sqrt(2.0)):
                assert f_correction(1, Delta, D) == pytest.approx(Delta, abs=1e-14)

    def test_reference_value(self):
        expected = math.sqrt(3) * ((1.1) ** 2 - 1 - (1 - 1 / math.sqrt(3)) * 0.01)
        assert f_correction(2, 0.1, 3) == pytest.approx(expected, rel=1e-14)
        assert f_correction(2, 0.1, 3) == pytest.approx(0.3564101615137758, rel=1e-12)

    def test_zero_chord(self):
        assert f_correction(3, 0.0, 4) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            f_correction(0, 0.1, 3)
        with pytest.raises(ValueError):
            f_correction(2, 1.5, 3)


class TestCombineBound:
    def test_degree_one_reference_point(self):
        # gamma*=1, l=1, d=1, Delta=sqrt(2), A=sqrt(2), kappa=sqrt(2):
        # 1 + (1 + sqrt 2) * sqrt 2 * sqrt 2 = 3 + 2 sqrt 2.
        val = combine_bound(1.0, SQRT2, SQRT2, SQRT2, 1, 1)
        assert val == pytest.approx(3 + 2 * SQRT2, rel=1e-12)
        assert val == pytest.approx(5.82842712474619, rel=1e-12)

    def test_infinite_A_propagates(self):
        assert math.isinf(combine_bound(1.0, math.inf, 0.3, 2.0, 2, 1))

    def test_root_applied(self):
        val = combine_bound(2.0, 0.0, 0.0, 5.0, 2, 3)
        assert val == pytest.approx(2.0, rel=1e-12)


def make_budget(**kw):
    base = dict(beta=0.95, beta1=0.95, m=2, l=1, N=1000, n=2, d=1)
    base.update(kw)
    return ConfidenceBudget(**base)


class TestJsrUpperBound:
    def test_reduction_identity_d1(self):
        # The general formula with d=1 must equal the quadratic-case bound
        # computed independently: (g^l + (g^l + A) Delta kappa)^(1/l).
        rng = np.random.default_rng(10)
        for _ in range(50):
            gamma = rng.uniform(0.2, 2.5)
            kappa = rng.uniform(1.0, 30.0)
            lam = rng.uniform(0.0, 3.0)
            N = int(rng.integers(10, 5000))
            l = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            budget = make_budget(N=max(N, 4), l=l, m=m)
            rep = jsr_upper_bound(gamma, kappa, lam, budget)
            eps = eps_cover(budget.beta, budget.ml, 3, budget.N)
            Delta = cap_params(eps, 2).Delta
            delta1 = delta_cap(eps_one(budget.beta1, m, l, budget.N), 2)
            if delta1 == 0.0:
                assert not rep.finite and math.isinf(rep.jsr_upper_bound)
                continue
            A = lam / delta1 ** (1.0 / l)
            expected = (gamma**l + (gamma**l + A) * Delta * kappa) ** (1.0 / l)
            assert rep.jsr_upper_bound == pytest.approx(expected, rel=1e-12)

    def test_confidence_composition(self):
        rep = jsr_upper_bound(1.0, 1.0, 1.0, make_budget())
        assert rep.confidence == pytest.approx(0.9, abs=1e-12)
        assert not rep.flags["vacuous_confidence"]

    def test_vacuous_confidence_clamped(self):
        rep = jsr_upper_bound(1.0, 1.0, 1.0, make_budget(beta=0.4, beta1=0.4))
        assert rep.confidence == 0.0
        assert rep.flags["vacuous_confidence"]

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError, match="minimum sample count 4"):
            jsr_upper_bound(1.0, 1.0, 1.0, make_budget(N=3))
        with pytest.raises(ValueError, match="minimum sample count 7"):
            jsr_upper_bound(1.0, 1.0, 1.0, make_budget(N=6, d=2))

    def test_infinite_regime(self):
        # Small N with many modes: eps1 >= 1/2, so the growth bound is +inf.
        rep = jsr_upper_bound(1.0, 1.0, 1.0, make_budget(N=4, m=5, l=3))
        assert not rep.finite
        assert math.isinf(rep.A_value) and math.isinf(rep.jsr_upper_bound)
        assert rep.flags["delta_eps1_zero"]

    def test_bound_dominates_gamma_star(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            gamma = rng.uniform(0.0, 3.0)
            rep = jsr_upper_bound(
                gamma,
                rng.uniform(1.0, 10.0),
                rng.uniform(0.0, 3.0),
                make_budget(N=int(rng.integers(4, 2000))),
            )
            assert rep.jsr_upper_bound >= gamma - 1e-9

    def test_monotone_in_N(self):
        bounds = [
            jsr_upper_bound(1.2, 2.0, 1.5, make_budget(N=N)).jsr_upper_bound
            for N in (10, 30, 100, 1000, 10000)
        ]
        finite = [b for b in bounds if math.isfinite(b)]
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))
        assert len(finite) >= 3

    @pytest.mark.parametrize("lam, d", [(math.inf, 1), (1e200, 2)])
    def test_infinite_bound_never_finite(self, lam, d):
        # lambda* = inf used to give an infinite bound flagged finite; at
        # d = 2, lambda* = 1e200 raised OverflowError in A^d.
        rep = jsr_upper_bound(1.0, 1.0, lam, make_budget(d=d))
        assert math.isinf(rep.jsr_upper_bound) and not rep.finite
        assert rep.delta_eps1 > 0.0

    def test_finiteness_iff_cap_positive(self):
        for N in (4, 5, 8, 40, 400):
            budget = make_budget(N=N, m=3, l=2)
            rep = jsr_upper_bound(1.0, 1.0, 1.0, budget)
            assert rep.finite == (delta_cap(eps_one(0.95, 3, 2, N), 2) > 0.0)

    def test_report_serialization_roundtrip(self):
        rep = jsr_upper_bound(1.0, 2.0, 1.5, make_budget(), provenance={"seed": 7})
        data = json.loads(rep.to_json())
        for key in (
            "d", "l", "N", "m", "gamma_star", "kappa", "lambda_star", "beta",
            "beta1", "eps", "eps1", "delta_eps", "delta_eps1", "Delta",
            "f_value", "A_value", "jsr_upper_bound", "confidence", "finite",
            "flags", "provenance",
        ):
            assert key in data
        assert data["provenance"]["seed"] == 7

    def test_infinity_serializes_and_parses(self):
        rep = jsr_upper_bound(1.0, 1.0, 1.0, make_budget(N=4, m=5, l=3))
        parsed = json.loads(rep.to_json())
        assert math.isinf(parsed["jsr_upper_bound"])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            jsr_upper_bound(1.0, 1.0, 1.0, make_budget(n=1))


class TestReportType:
    def test_is_dataclass_value_object(self):
        rep = jsr_upper_bound(1.0, 1.0, 1.0, make_budget())
        assert isinstance(rep, CertificateReport)
        assert rep.d == 1 and rep.N == 1000 and rep.m == 2


class TestCBoundBindingFlag:
    def test_flagged_only_when_ceiling_shapes_the_solution(self, parrilo):
        from jsrcert.cli import certify_run
        from jsrcert.sampling import simulate

        obs = simulate(parrilo, 2000, 1, seed=1)
        quadratic = certify_run(obs, 1, 0.95, 0.95, 2)
        assert not quadratic.flags["c_bound_binding"]
        assert quadratic.kappa == pytest.approx(1.0, abs=1e-2)
        quartic = certify_run(obs, 2, 0.95, 0.95, 2)
        assert quartic.flags["c_bound_binding"]
        assert quartic.kappa <= math.sqrt(100.0) * (1 + 1e-6)
