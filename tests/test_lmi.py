"""The LP cutting-plane engine, called directly.

The expected values below were recorded with the three cut loops as they
stood before they were merged into one kernel; exact equality pins that the
kernel still issues the same LPs, in the same order, with the same arrays.
"""

import numpy as np
import pytest

from jsrcert import lmi
from jsrcert.certifier import SolveOptions, _bisect_gamma, _PairCache, _tie_break_cache
from jsrcert.sampling import ModeSet, simulate

RAND = ModeSet((
    np.array([[0.6, -0.7], [0.3, 0.5]]),
    np.array([[-0.4, 0.9], [0.2, 0.8]]),
    np.array([[0.7, 0.1], [-0.6, 0.3]]),
))


def cache_for(modes, N, d, seed):
    return _PairCache(simulate(modes, N, 1, seed=seed), d)


@pytest.fixture(scope="module")
def parrilo_d2(parrilo):
    return cache_for(parrilo, 30, 2, 4).rows(1.05), 3


@pytest.fixture(scope="module")
def rand_d1():
    return cache_for(RAND, 25, 1, 6).rows(1.05), 2


PARRILO_D2_FEASIBLE = [
    [5.550781398921502, 0.003369550758143758, -4.489578607914138],
    [0.003369550758143758, 1.0074080508714558, 0.007985703180568135],
    [-4.489578607914138, 0.007985703180568135, 5.446471723725937],
]
PARRILO_D2_BALANCED = [
    [1.3871565349547677, 0.000842060606985724, -1.1219588482391427],
    [0.000842060606985724, 0.2517542235411939, 0.0019956506223225558],
    [-1.1219588482391427, 0.0019956506223225558, 1.3610892415040383],
]
PARRILO_D2_MIN_LAMBDA_MAX = [
    [5.55076688013778, 0.0033785990831297855, -4.489412790847167],
    [0.0033785990831297855, 1.0072786943849303, 0.007975866076738143],
    [-4.489412790847167, 0.007975866076738143, 5.446462614463957],
]
RAND_D1_FEASIBLE = [
    [1.0762906775455214, -0.1659096333228331],
    [-0.1659096333228331, 1.3608043251797384],
]
RAND_D1_BALANCED = [
    [0.8832570550938466, -0.13615360348062436],
    [-0.13615360348062436, 1.1167429449061534],
]
RAND_D1_MIN_LAMBDA_MAX = [
    [1.0762902127142733, -0.16590862244788157],
    [-0.16590862244788157, 1.3608021268159856],
]


class TestMaxMarginFeasibility:
    def test_infeasible_d1(self, parrilo):
        rows = cache_for(parrilo, 20, 1, 2).rows(1.2)
        result = lmi.max_margin_feasibility(rows, 2, 100.0, 1e-7)
        assert not result.feasible
        assert result.P is None
        assert result.margin == -0.25475862644281655

    def test_feasible_d2(self, parrilo_d2):
        result = lmi.max_margin_feasibility(*parrilo_d2, 100.0, 1e-7)
        assert result.feasible
        assert result.margin == 0.04404095313988208
        assert np.array_equal(result.P, PARRILO_D2_FEASIBLE)

    def test_feasible_d1(self, rand_d1):
        result = lmi.max_margin_feasibility(*rand_d1, 100.0, 1e-7)
        assert result.feasible
        assert result.margin == 0.018723859638626134
        assert np.array_equal(result.P, RAND_D1_FEASIBLE)

    def test_probe_directions_accumulate(self, parrilo_d2):
        dirs = []
        lmi.max_margin_feasibility(*parrilo_d2, 100.0, 1e-7, dirs)
        assert len(dirs) > len(lmi.seed_cut_directions(3))


class TestBalancedWitness:
    @pytest.mark.parametrize("case, expected, n_dirs", [
        ("parrilo_d2", PARRILO_D2_BALANCED, 20),
        ("rand_d1", RAND_D1_BALANCED, 17),
    ])
    def test_recorded(self, case, expected, n_dirs, request):
        rows, D = request.getfixturevalue(case)
        dirs = lmi.seed_cut_directions(D)
        P = lmi._balanced_witness(lmi._clean_rows(rows), D, 1e-6, dirs)
        assert np.array_equal(P, expected)
        assert len(dirs) == n_dirs


class TestMinLambdaMax:
    @pytest.mark.parametrize("case, expected", [
        ("parrilo_d2", PARRILO_D2_MIN_LAMBDA_MAX),
        ("rand_d1", RAND_D1_MIN_LAMBDA_MAX),
    ])
    def test_recorded(self, case, expected, request):
        rows, D = request.getfixturevalue(case)
        P = lmi.min_lambda_max(rows, D, 100.0, upper_hint=50.0)
        assert np.array_equal(P, expected)
        assert np.linalg.eigvalsh(P)[0] >= 1.0 - 1e-12

    def test_finds_known_optimum_without_hint(self):
        # u'Pu <= v'Pv with u = (2, 0), v = (cos 60deg, sin 60deg).  The optimum
        # is P = I + (lam - 1) qq' with the angle of q half the argument of
        # z = e^{2i*60deg} - 4, and lam = 1 + 6 / (|z| - 3) = (5 + sqrt 21) / 2.
        # The ceiling cut w'Pw <= tau is needed: boxing the entries of P by
        # tau alone stops at lambda_max = 4.8.
        v = np.array([[0.5, np.sqrt(3.0) / 2.0]])
        rows = lmi.quad_form_rows(np.array([[2.0, 0.0]])) - lmi.quad_form_rows(v)
        z = np.exp(2j * np.pi / 3.0) - 4.0
        q = np.array([np.cos(np.angle(z) / 2.0), np.sin(np.angle(z) / 2.0)])
        lam = (5.0 + np.sqrt(21.0)) / 2.0
        P = lmi.min_lambda_max(rows, 2, 100.0)
        assert np.allclose(np.linalg.eigvalsh(P), [1.0, lam], atol=1e-8)
        # The eigenvalues move only to second order in a rotation of P, so
        # the minimizer is pinned more loosely than the optimal value.
        assert np.allclose(P, np.eye(2) + (lam - 1.0) * np.outer(q, q), atol=1e-4)

    def test_stall_raises(self, rand_d1, monkeypatch):
        monkeypatch.setattr(lmi, "_MAX_CUT_ROUNDS", 0)
        with pytest.raises(lmi.SolverStallError):
            lmi.min_lambda_max(*rand_d1, 100.0)


def test_tie_break_stall_keeps_bisection_witness(parrilo, monkeypatch):
    def stall(*args, **kwargs):
        raise lmi.SolverStallError("stalled for the test")

    opts = SolveOptions()
    cache = cache_for(parrilo, 40, 2, 8)
    gamma_star, witness, dirs = _bisect_gamma(cache, opts)
    monkeypatch.setattr(lmi, "min_lambda_max", stall)
    cand = _tie_break_cache(cache, gamma_star, witness, opts, dirs)
    assert cand.gamma == gamma_star
    assert np.array_equal(cand.P.full(), witness)
