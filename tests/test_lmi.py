"""The LP cutting-plane engine, called directly.

The expected values below were recorded with the three cut loops as they
stood before they were merged into one kernel; exact equality pins that the
kernel still issues the same LPs, in the same order, with the same arrays.
Row generation is checked against the full LP, obtained by raising
`_ROW_BLOCK` above the row count.
"""

import numpy as np
import pytest

from jsrcert import lmi
from jsrcert.certifier import (
    SolveOptions,
    _bisect_gamma,
    _PairCache,
    _tie_break_cache,
    solve_gamma,
)
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
        result = lmi.max_margin_feasibility(rows, 2, 100.0)
        assert not result.feasible
        assert result.P is None
        assert result.margin == -0.25475862644281655

    def test_feasible_d2(self, parrilo_d2):
        result = lmi.max_margin_feasibility(*parrilo_d2, 100.0)
        assert result.feasible
        assert result.margin == 0.04404095313988208
        assert np.array_equal(result.P, PARRILO_D2_FEASIBLE)

    def test_feasible_d1(self, rand_d1):
        result = lmi.max_margin_feasibility(*rand_d1, 100.0)
        assert result.feasible
        assert result.margin == 0.018723859638626134
        assert np.array_equal(result.P, RAND_D1_FEASIBLE)

    def test_probe_directions_accumulate(self, parrilo_d2):
        dirs = []
        lmi.max_margin_feasibility(*parrilo_d2, 100.0, dirs)
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
    gamma_star, witness = _bisect_gamma(cache, opts)
    monkeypatch.setattr(lmi, "min_lambda_max", stall)
    cand = _tie_break_cache(cache, gamma_star, witness, opts)
    assert cand.gamma == gamma_star
    assert np.array_equal(cand.P.full(), witness)


def generated_and_full(program, monkeypatch):
    """`program()` with row generation, then on the full LP, plus the row
    counts of the generated run's LPs."""
    sizes = []
    lp = lmi.linprog

    def counting(*args, **kwargs):
        sizes.append(kwargs["A_ub"].shape[0])
        return lp(*args, **kwargs)

    monkeypatch.setattr(lmi, "linprog", counting)
    generated = program()
    monkeypatch.setattr(lmi, "linprog", lp)
    monkeypatch.setattr(lmi, "_ROW_BLOCK", 10**9)
    return generated, program(), sizes


@pytest.fixture(scope="module", params=["parrilo_d1", "rand_d2"])
def above_block(request):
    """Sample rows well above the block, with a (feasible, infeasible) gamma."""
    if request.param == "parrilo_d1":
        cache = cache_for(request.getfixturevalue("parrilo"), 1000, 1, 3)
        gammas = (1.46, 1.37)  # gamma* = 1.41417
    else:
        cache = cache_for(RAND, 600, 2, 5)
        gammas = (0.962, 0.906)  # gamma* = 0.93437
    assert lmi._clean_rows(cache.rows(gammas[0])).shape[0] > 2 * lmi._ROW_BLOCK
    return cache, gammas


class TestRowGeneration:
    def test_feasible(self, above_block, monkeypatch):
        cache, (gamma, _) = above_block
        rows = cache.rows(gamma)
        clean = lmi._clean_rows(rows)
        generated, full, sizes = generated_and_full(
            lambda: lmi.max_margin_feasibility(rows, cache.dim, 100.0), monkeypatch
        )
        assert generated.feasible and full.feasible
        assert abs(generated.margin - full.margin) <= 1e-9
        assert np.max(clean @ generated.P[np.triu_indices(cache.dim)]) <= 1e-9
        assert max(sizes) < clean.shape[0]

    def test_infeasible(self, above_block, monkeypatch):
        cache, (_, gamma) = above_block
        rows = cache.rows(gamma)
        generated, full, sizes = generated_and_full(
            lambda: lmi.max_margin_feasibility(rows, cache.dim, 100.0), monkeypatch
        )
        assert not generated.feasible and not full.feasible
        # Both stop at the first relaxation whose margin falls below
        # -1e-7; with fewer rows that relaxation is looser, never tighter.
        assert generated.margin >= full.margin - 1e-9
        assert generated.margin < -1e-7
        assert max(sizes) < lmi._clean_rows(rows).shape[0]

    def test_min_lambda_max(self, above_block, monkeypatch):
        cache, (gamma, _) = above_block
        rows = cache.rows(gamma)
        generated, full, sizes = generated_and_full(
            lambda: lmi.min_lambda_max(rows, cache.dim, 100.0), monkeypatch
        )
        top, top_full = np.linalg.eigvalsh(generated)[-1], np.linalg.eigvalsh(full)[-1]
        assert abs(top - top_full) <= 1e-8 * top_full
        assert max(sizes) < lmi._clean_rows(rows).shape[0]


    def test_solutions_satisfy_every_row(self, monkeypatch):
        # Inside the bisection the probe directions are already learned, so
        # some rounds only add rows; a solution may come back only after the
        # round that adds none.
        cut_loop = lmi._cut_loop
        returned = []

        def checking(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs):
            tau, P, eigvals = cut_loop(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs)
            if P is not None:
                x = np.append(P[np.triu_indices(D)], tau)
                assert np.max(base @ x - base_rhs) <= 1e-9
                returned.append(base.shape[0])
            return tau, P, eigvals

        monkeypatch.setattr(lmi, "_cut_loop", checking)
        solve_gamma(simulate(RAND, 600, 1, seed=5), 2)
        assert min(returned) > lmi._ROW_BLOCK


def test_sweep_sized_programs_keep_every_row(parrilo, monkeypatch):
    # The largest sweep cell (N=200, d=2) must keep solving the full LPs,
    # or the sweep's CSV bytes move.
    bases = []
    cut_loop, lp = lmi._cut_loop, lmi.linprog

    def recording(sense, bounds, base, *args, **kwargs):
        bases.append(base)
        return cut_loop(sense, bounds, base, *args, **kwargs)

    def checking(*args, **kwargs):
        base = bases[-1]
        assert np.array_equal(kwargs["A_ub"][: base.shape[0]], base)
        return lp(*args, **kwargs)

    monkeypatch.setattr(lmi, "_cut_loop", recording)
    monkeypatch.setattr(lmi, "linprog", checking)
    solve_gamma(simulate(parrilo, 200, 1, seed=12), 2)
    assert max(base.shape[0] for base in bases) == 200 + 9  # samples plus magnitude rows
