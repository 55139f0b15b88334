"""The LP cutting-plane engine, called directly.

The expected values below were recorded with the three cut loops as they
stood before they were merged into one kernel; exact equality pins that the
kernel still issues the same LPs, in the same order, with the same arrays.
Row generation is checked against the full LP, obtained by raising
`_ROW_BLOCK` above the row count.  Above the threshold a cut loop adds rows
to the model HiGHS holds in place of calling `linprog` again, so tests of
those loops read each LP back from `lmi._HIGHS` at `lmi._run_highs`, the
one place a model is solved.
"""

import importlib.machinery
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from jsrcert import certifier, lmi
from jsrcert.certifier import (
    SolveOptions,
    _bisect_gamma,
    _PairCache,
    _tie_break_cache,
    solve_gamma,
)
from jsrcert.sampling import ModeSet, simulate

PARRILO = ModeSet((np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])))
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


def verdict_and_witness(rows, D):
    """The oracle's verdict, then its witness on the same cuts, as the bisection asks."""
    dirs = []
    result = lmi.max_margin_feasibility(rows, D, 100.0, dirs)
    return result, lmi.feasibility_witness(result, D, dirs)


class TestMaxMarginFeasibility:
    def test_infeasible_d1(self, parrilo):
        rows = cache_for(parrilo, 20, 1, 2).rows(1.2)
        result = lmi.max_margin_feasibility(rows, 2, 100.0)
        assert not result.feasible
        assert result.margin == -0.25475862644281655

    def test_feasible_d2(self, parrilo_d2):
        result = lmi.max_margin_feasibility(*parrilo_d2, 100.0)
        assert result.feasible
        assert result.margin == 0.04404095313988208

    def test_feasible_d1(self, rand_d1):
        result = lmi.max_margin_feasibility(*rand_d1, 100.0)
        assert result.feasible
        assert result.margin == 0.018723859638626134

    @pytest.mark.parametrize("case, margin", [
        ("parrilo_d2", 0.04404095313988208),
        ("rand_d1", 0.018723859638626134),
    ])
    def test_verdict_builds_no_witness(self, case, margin, request, monkeypatch):
        def unused(*args):
            raise AssertionError("the verdict must not balance a witness")

        monkeypatch.setattr(lmi, "_balanced_witness", unused)
        result = lmi.max_margin_feasibility(*request.getfixturevalue(case), 100.0)
        assert result.feasible
        assert result.margin == margin

    def test_probe_directions_accumulate(self, parrilo_d2):
        dirs = []
        lmi.max_margin_feasibility(*parrilo_d2, 100.0, dirs)
        assert len(dirs) > len(lmi.seed_cut_directions(3))


class TestFeasibilityWitness:
    @pytest.mark.parametrize("case, expected", [
        ("parrilo_d2", PARRILO_D2_FEASIBLE),
        ("rand_d1", RAND_D1_FEASIBLE),
    ])
    def test_recorded(self, case, expected, request):
        _, P = verdict_and_witness(*request.getfixturevalue(case))
        assert np.array_equal(P, expected)

    def test_no_rows_gives_identity(self):
        result = lmi.max_margin_feasibility(np.zeros((2, 3)), 2, 100.0)
        assert result == lmi.MarginResult(True, 1.0)
        P = lmi.feasibility_witness(result, 2, [])
        assert np.array_equal(P, np.eye(2))

    def test_failed_recheck_gives_none(self, rand_d1, monkeypatch):
        # A balanced P that misses a row by more than the contract is refused.
        rows, D = rand_d1
        assert np.max(lmi._clean_rows(rows) @ np.eye(D)[np.triu_indices(D)]) > 1e-9
        monkeypatch.setattr(lmi, "_balanced_witness", lambda *args: np.eye(D))
        result = lmi.MarginResult(True, 1e-3, rows=lmi._clean_rows(rows))
        assert lmi.feasibility_witness(result, D, []) is None

    def test_above_threshold_takes_the_oracles_P(self, above_block, monkeypatch):
        # Above the threshold the witness solves no LP: it is the verdict's
        # own P, rescaled so P >= I and checked on every row.
        cache, (gamma, _) = above_block
        rows, D = cache.rows(gamma), cache.dim
        dirs = []
        result = lmi.max_margin_feasibility(rows, D, 100.0, dirs)
        assert result.feasible
        assert result == lmi.MarginResult(result.feasible, result.margin)
        assert "P=" not in repr(result) and "rows=" not in repr(result)
        assert np.array_equal(result.rows, lmi._clean_rows(rows))

        def unused(*args, **kwargs):
            raise AssertionError("the witness must solve no LP")

        monkeypatch.setattr(lmi, "_balanced_witness", unused)
        monkeypatch.setattr(lmi, "linprog", unused)
        monkeypatch.setattr(lmi, "_run_highs", unused)
        P = lmi.feasibility_witness(result, D, dirs)
        assert np.array_equal(P, result.P / np.linalg.eigvalsh(result.P)[0])
        assert np.max(lmi._clean_rows(rows) @ P[np.triu_indices(D)]) <= 1e-9
        assert np.linalg.eigvalsh(P)[0] >= 1.0 - 1e-12


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
    assert cand.tiebreak_fallback


@pytest.mark.parametrize("case", ["parrilo_d1", "rand_d2"])
def test_tie_break_stall_above_threshold_keeps_bisection_witness(case, parrilo, monkeypatch):
    # Above the threshold the bisection witness is the oracle's own P, so
    # after a stall it is the candidate itself: it must
    # still decrease on every sample at rate gamma*, within the box.
    modes, N, d, seed = (parrilo, 1000, 1, 3) if case == "parrilo_d1" else (RAND, 600, 2, 5)
    assert N > lmi._ROW_BLOCK
    witnesses, stalls = [], []
    bisect = certifier._bisect_gamma

    def recording(*args):
        out = bisect(*args)
        witnesses.append(out[1])
        return out

    def stall(*args, **kwargs):
        stalls.append(args)
        raise lmi.SolverStallError("stalled for the test")

    monkeypatch.setattr(certifier, "_bisect_gamma", recording)
    monkeypatch.setattr(lmi, "min_lambda_max", stall)
    obs = simulate(modes, N, 1, seed=seed)
    opts = SolveOptions()
    gamma_star, cand = solve_gamma(obs, d, opts)
    assert stalls and len(witnesses) == 1
    assert cand.gamma == gamma_star
    P = cand.P.full()
    assert np.array_equal(P, witnesses[0])
    cache = _PairCache(obs, d)
    p = P[np.triu_indices(cache.dim)]
    rate = float(np.max((cache.Wv @ p) / (cache.Wu @ p))) ** (1.0 / (2 * d * obs.l))
    assert rate <= gamma_star * (1.0 + 1e-6)
    assert cand.kappa <= opts.c_bound


# HiGHS stops at once under an iteration limit of 0.
FAILING = lmi._highs_options({**lmi._LP_TOLERANCES, "simplex_iteration_limit": 0})


def held_lp():
    """The LP `lmi._HIGHS` holds, as linprog's keyword arguments, rows in
    model order: rows without a lower bound go to A_ub, the others to A_eq.
    HiGHS drops matrix entries of magnitude at most 1e-9."""
    lp = lmi._HIGHS.getLp()
    matrix = lp.a_matrix_
    start = np.asarray(matrix.start_)
    outer = np.repeat(np.arange(start.size - 1), np.diff(start))
    index = np.asarray(matrix.index_, dtype=int)
    A = np.zeros((lp.num_row_, lp.num_col_))
    if matrix.format_ == lmi._highs.MatrixFormat.kColwise:
        A[index, outer] = matrix.value_
    else:
        A[outer, index] = matrix.value_
    lower, upper = np.asarray(lp.row_lower_), np.asarray(lp.row_upper_)
    ub = np.isneginf(lower)
    return dict(c=np.asarray(lp.col_cost_), A_ub=A[ub], b_ub=upper[ub],
                bounds=list(zip(lp.col_lower_, lp.col_upper_)),
                A_eq=A[~ub] if not ub.all() else None, b_eq=upper[~ub] if not ub.all() else None)


def record_solves(program):
    """`program()`, and every HiGHS solve it made: the LP solved (`held_lp`),
    the status and x, whether the solve came from a `linprog` call, and the
    simplex iteration limit it ran under."""
    solves, in_linprog = [], []
    run, lp = lmi._run_highs, lmi.linprog

    def cold(*args, **kwargs):
        in_linprog.append(True)
        try:
            return lp(*args, **kwargs)
        finally:
            in_linprog.pop()

    def recording(*args):
        res = run(*args)
        limit = lmi._HIGHS.getOptionValue("simplex_iteration_limit")[1]
        solves.append(dict(held_lp(), status=res.status, x=res.x, cold=bool(in_linprog),
                           iteration_limit=limit))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmi, "linprog", cold)
        patch.setattr(lmi, "_run_highs", recording)
        out = program()
    return out, solves


def rows_in(rows, A, tol=1e-9):
    """Which of `rows` the matrix A holds, up to the entries HiGHS drops."""
    rows, A = np.atleast_2d(rows), np.atleast_2d(A)
    if rows.shape[0] == 0 or A.shape[0] == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    return (np.abs(rows[:, None, :] - A[None, :, :]).max(axis=2) <= tol).any(axis=1)


def generated_and_full(program, monkeypatch):
    """`program()` with row generation, then on the full LP, plus the row
    counts of the generated run's LPs."""
    generated, solves = record_solves(program)
    monkeypatch.setattr(lmi, "_ROW_BLOCK", 10**9)
    return generated, program(), [len(solve["b_ub"]) for solve in solves]


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
        (generated, P), (full, _), sizes = generated_and_full(
            lambda: verdict_and_witness(rows, cache.dim), monkeypatch
        )
        assert generated.feasible and full.feasible
        # The generated loop may stop at its first interior point of the
        # whole program, short of the optimum but never above it.
        assert lmi.FEASIBILITY_MARGIN <= generated.margin <= full.margin + 1e-9
        assert np.max(clean @ P[np.triu_indices(cache.dim)]) <= 1e-9
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


@pytest.mark.parametrize("above_block", ["rand_d2"], indirect=True)  # Parrilo: one LP a loop
def test_feasible_verdict_ends_at_an_interior_point(above_block, monkeypatch):
    # Above the threshold a feasible verdict may end before the margin
    # optimum, at its iterate mixed with I up to the floor D/C: trace D,
    # smallest eigenvalue at the floor, and the margin it meets on every row.
    cache, (gamma, _) = above_block
    rows, D = cache.rows(gamma), cache.dim
    result, solves = record_solves(lambda: lmi.max_margin_feasibility(rows, D, 100.0))
    P = result.P
    assert result.feasible
    assert np.trace(P) == pytest.approx(D, rel=1e-12)
    assert np.linalg.eigvalsh(P)[0] == pytest.approx(D / 100.0, abs=1e-12)
    assert result.margin == -np.max(result.rows @ P[np.triu_indices(D)])
    cut_loop = lmi._cut_loop
    monkeypatch.setattr(lmi, "_cut_loop",
                        lambda *args, interior=None, **kwargs: cut_loop(*args, **kwargs))
    optimum, tail = record_solves(lambda: lmi.max_margin_feasibility(rows, D, 100.0))
    assert optimum.feasible and optimum.margin > result.margin
    assert len(tail) > len(solves)


def test_sweep_sized_programs_keep_every_row(parrilo, monkeypatch):
    # The largest sweep cell (N=200, d=2) must keep solving the full LPs,
    # or the sweep's CSV bytes move.
    bases = []
    cut_loop, lp = lmi._cut_loop, lmi.linprog

    def recording(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs):
        bases.append((base, dirs, a, b))
        return cut_loop(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs)

    def checking(*args, **kwargs):
        base, dirs, a, b = bases[-1]
        A, rhs = kwargs["A_ub"], kwargs["b_ub"]
        assert np.array_equal(A[: base.shape[0]], base)
        # Then every cut learned so far, in `dirs` order, as the pool's rows.
        q = lmi.quad_form_rows(np.array(dirs))
        cuts = slice(base.shape[0], base.shape[0] + len(dirs))
        assert np.array_equal(A[cuts], np.hstack([-q, np.full((len(dirs), 1), a)]))
        assert np.array_equal(rhs[cuts], np.full(len(dirs), 0.0 - b))
        return lp(*args, **kwargs)

    monkeypatch.setattr(lmi, "_cut_loop", recording)
    monkeypatch.setattr(lmi, "linprog", checking)
    solve_gamma(simulate(parrilo, 200, 1, seed=12), 2)
    assert max(base.shape[0] for base, *_ in bases) == 200 + 9  # samples plus magnitude rows


@pytest.mark.parametrize("case, D", [("parrilo_d1", 2), ("rand_d2", 3)])
def test_generation_step_follows_lift_dimension(case, D, parrilo, monkeypatch):
    # Above the threshold, the first LP of a loop carries exactly
    # 4*(D(D+1)/2 + 1) base rows, and each round adds at most that many.
    step = 4 * (D * (D + 1) // 2 + 1)
    loops = []  # (base, base rows in each LP of the loop)
    cut_loop, run = lmi._cut_loop, lmi._run_highs

    def recording(sense, bounds, base, *args, **kwargs):
        loops.append((base, []))
        return cut_loop(sense, bounds, base, *args, **kwargs)

    def counting(*args):
        base, counts = loops[-1]
        counts.append(np.count_nonzero(rows_in(held_lp()["A_ub"], base)))
        return run(*args)

    monkeypatch.setattr(lmi, "_cut_loop", recording)
    monkeypatch.setattr(lmi, "_run_highs", counting)
    modes, d = (parrilo, 1) if case == "parrilo_d1" else (RAND, 2)
    solve_gamma(simulate(modes, 600, 1, seed=5), d)
    generated = [counts for base, counts in loops if base.shape[0] > lmi._ROW_BLOCK]
    assert len(generated) > 10
    rounds = [b - a for counts in generated for a, b in zip(counts, counts[1:])]
    assert all(counts[0] == step for counts in generated)
    assert all(0 <= added <= step for added in rounds)
    if case == "rand_d2":  # on Parrilo d=1 the first LP's rows nearly always suffice
        assert step in rounds


class TestFirstRowPick:
    """The rows of a generated loop's first LP: the `step` most violated at
    (vech P, tau = 0), P the start point passed in (P = I when none is), ties
    at the cut-off taken in row order."""

    def test_block_at_most_step_keeps_every_row(self, parrilo, monkeypatch):
        # 10 base rows lie above a block of 5 but within D = 2's step of 16;
        # every row is active from the first LP, as in the full LP.
        rows = cache_for(parrilo, 10, 1, 3).rows(1.5)
        assert lmi._clean_rows(rows).shape[0] == 10
        programs = (lambda: lmi.max_margin_feasibility(rows, 2, 100.0),
                    lambda: lmi.min_lambda_max(rows, 2, 100.0))
        monkeypatch.setattr(lmi, "_ROW_BLOCK", 5)
        picked = [record_lps(program) for program in programs]
        monkeypatch.setattr(lmi, "_ROW_BLOCK", 10**9)
        for lps, program in zip(picked, programs):
            full = record_lps(program)
            assert len(lps) == len(full)
            for ours, ref in zip(lps, full):
                assert ours.keys() == ref.keys()
                for key in ours:
                    assert np.array_equal(ours[key], ref[key])

    @pytest.mark.parametrize("seed, start", [
        pytest.param(seed, start, id=f"{seed}-random" if start else f"{seed}")
        for seed in (0, 2, 4) for start in (None, "random")])  # None: P = I
    def test_ties_at_the_cut_off_go_in_row_order(self, seed, start, monkeypatch):
        # Integer rows and a start point in halves give exact slacks with
        # many ties; the first LP must hold the rows a stable argsort of the
        # slacks at (vech P, 0) puts first.
        D, step, N = 2, 16, 400
        rng = np.random.default_rng(seed)
        base = rng.integers(-3, 4, (N, 4)).astype(float)
        base_rhs = rng.integers(-3, 4, N).astype(float)
        P = None
        x0 = np.array([1.0, 0.0, 1.0, 0.0])
        if start == "random":  # P > 0 with trace D, P != I: det >= 3/4 - 1/4
            p00, p01 = rng.choice([0.5, 1.5]), rng.choice([-0.5, 0.0, 0.5])
            P = np.array([[p00, p01], [p01, 2 - p00]])
            x0 = np.array([p00, p01, 2 - p00, 0.0])
        slack = base_rhs - base @ x0
        expected = np.zeros(N, dtype=bool)
        expected[np.argsort(slack, kind="stable")[:step]] = True
        at_identity = np.argsort(base_rhs - base @ [1.0, 0.0, 1.0, 0.0], kind="stable")[:step]
        assert (start == "random") == (set(at_identity) != set(np.flatnonzero(expected)))
        cut = np.sort(slack)[step - 1]
        assert 0 < np.count_nonzero(expected & (slack == cut)) < np.count_nonzero(slack == cut)
        first = []

        def stop_after_first(c, **kwargs):
            first.append(kwargs["A_ub"])
            raise StopIteration

        assert N > lmi._ROW_BLOCK
        monkeypatch.setattr(lmi, "linprog", stop_after_first)
        bounds, trace_row = lmi._trace_box(D, (-4.0, 4.0))
        with pytest.raises(StopIteration):
            lmi._cut_loop(-1.0, bounds, base, base_rhs, [], 0.0, 0.1, D,
                          A_eq=trace_row, b_eq=[float(D)], start=P)
        assert np.array_equal(first[0][:step], base[expected])
        assert first[0].shape[0] == step + len(lmi.seed_cut_directions(D))


def test_bisection_starts_each_oracle_call_from_the_last_optimum(monkeypatch):
    # Each call gets the P of the latest result that has one; infeasible
    # verdicts cut short have none, and the start stays as it was.
    calls = []
    oracle = lmi.max_margin_feasibility

    def recording(rows, D, c_bound, dirs=None, start=None):
        result = oracle(rows, D, c_bound, dirs, start)
        calls.append((start, result.P))
        return result

    monkeypatch.setattr(lmi, "max_margin_feasibility", recording)
    solve_gamma(simulate(RAND, 600, 1, seed=5), 2)
    last = None
    for start, P in calls:
        assert start is last
        last = last if P is None else P
    assert any(P is None for _, P in calls[1:])


@pytest.mark.parametrize("above_block", ["rand_d2"], indirect=True)  # Parrilo: one LP a loop
class TestHeldModel:
    """Above the threshold a cut loop keeps its LP in `lmi._HIGHS` and adds
    rows to it; a round that fails there is solved cold."""

    @staticmethod
    def programs(above_block):
        cache, (feasible, infeasible) = above_block
        D = cache.dim
        return {
            "verdict_feasible": lambda: lmi.max_margin_feasibility(cache.rows(feasible), D, 100.0),
            "verdict_infeasible": lambda: lmi.max_margin_feasibility(cache.rows(infeasible), D,
                                                                      100.0),
            "min_lambda_max": lambda: lmi.min_lambda_max(cache.rows(feasible), D, 100.0).tobytes(),
        }

    @pytest.fixture
    def failing_first(self, monkeypatch):
        # Each round on the held model adds a violated row and needs a
        # pivot, so none passes under an iteration limit of 0: every round
        # fails first, then is solved cold under `lmi._HIGHS_OPTIONS` again.
        add_rows, cold = lmi._add_rows, lmi.linprog

        def failing(A, rhs):
            lmi._HIGHS.passOptions(FAILING)  # for the warm `_run_highs` call
            return add_rows(A, rhs)

        def restoring(*args, **kwargs):
            with lmi._HIGHS_LOCK:
                lmi._HIGHS.passOptions(lmi._HIGHS_OPTIONS)
                return cold(*args, **kwargs)

        monkeypatch.setattr(lmi, "_add_rows", failing)
        monkeypatch.setattr(lmi, "linprog", restoring)
        yield
        lmi._HIGHS.passOptions(lmi._HIGHS_OPTIONS)

    def test_failed_round_solves_cold(self, above_block, failing_first, monkeypatch):
        warm = []
        for name, program in self.programs(above_block).items():
            got, solves = record_solves(program)
            with monkeypatch.context() as patch:  # every round cold
                patch.setattr(lmi, "_add_rows", lambda A, rhs: False)  # HiGHS refuses
                assert got == program(), name
            warm += [solve for solve in solves if not solve["cold"]]
            assert all(after["cold"] for before, after in zip(solves, solves[1:])
                       if not before["cold"]), name
            assert all(solve["iteration_limit"] == lmi._HIGHS_OPTIONS.simplex_iteration_limit
                       for solve in solves if solve["cold"]), name
        assert warm
        assert all(solve["iteration_limit"] == 0 and solve["status"] == 1 for solve in warm)

    @pytest.mark.parametrize("warm", ["tight_first", "failing_first"])
    def test_threads_share_the_instance_safely(self, above_block, warm, request):
        # More threads than cores, switching often: each loop must keep its
        # own model from round to round, and a cold fallback, which takes
        # the lock its loop holds, must not deadlock.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        if warm == "failing_first":
            request.getfixturevalue("failing_first")
        programs = list(self.programs(above_block).values()) * 3
        expected = [program() for program in programs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(program) for program in programs]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


def test_lift_dimension_six():
    # Two random 3x3 modes, each scaled to unit spectral radius, at d = 2:
    # D = 6.  Its gamma* was recorded with every LP solved cold, before
    # cut loops kept their LP in HiGHS; each bisection then took 14 s.
    A = np.random.default_rng(0).standard_normal((2, 3, 3))
    modes = ModeSet(tuple(a / np.max(np.abs(np.linalg.eigvals(a))) for a in A))
    gamma_star, _ = solve_gamma(simulate(modes, 400, 1, seed=0), 2)
    assert abs(gamma_star - 0.8684605583868064) <= 1e-6


def pool_rows(dirs, a):
    """The cut rows of `dirs` at cut level a*tau + b, as an LP carries them."""
    q = lmi.quad_form_rows(np.array(dirs))
    return np.hstack([-q, np.full((len(dirs), 1), a)])


def record_pool_loops(tail):
    """Every cut loop of a d = 2 certificate above the threshold: its cut
    level (a, b), its LPs as (A_ub, x, pool size when solved), what it
    returned and the pool at exit.  With `tail` no loop takes the oracle's
    exit at an interior point, so feasible verdicts run to the optimum."""
    loops = []
    cut_loop, run = lmi._cut_loop, lmi._run_highs

    def recording(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs):
        if tail:
            kwargs.pop("interior", None)
        loop = dict(a=a, b=b, lps=[], live=dirs)
        loops.append(loop)
        loop["out"] = cut_loop(sense, bounds, base, base_rhs, dirs, a, b, D, **kwargs)
        loop["dirs"] = list(dirs)
        return loop["out"]

    def solving(*args):
        res = run(*args)
        if res.status == 0:
            loops[-1]["lps"].append((held_lp()["A_ub"], res.x, len(loops[-1]["live"])))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmi, "_cut_loop", recording)
        patch.setattr(lmi, "_run_highs", solving)
        solve_gamma(simulate(RAND, 600, 1, seed=5), 2)
    return loops


@pytest.fixture(scope="module")
def pool_loops():
    """The loops as the certificate runs them, then with every loop run to its tail."""
    return record_pool_loops(tail=False), record_pool_loops(tail=True)


class TestCutPool:
    """Above the threshold an LP carries the seed cuts, the last `step`
    learned cuts, the cuts it learned itself and those turned on after an
    iterate violated them; at or below it, every cut."""

    def test_first_lp_carries_seeds_and_last_step_cuts(self, monkeypatch):
        D, step, N = 2, 16, 400
        rng = np.random.default_rng(1)
        base = rng.standard_normal((N, 4))
        learned = rng.standard_normal((30, D))
        dirs = lmi.seed_cut_directions(D) + list(learned / np.linalg.norm(learned, axis=1)[:, None])
        first = []

        def stop_after_first(c, **kwargs):
            first.append(kwargs)
            raise StopIteration

        assert N > lmi._ROW_BLOCK
        monkeypatch.setattr(lmi, "linprog", stop_after_first)
        bounds, trace_row = lmi._trace_box(D, (-4.0, 4.0))
        with pytest.raises(StopIteration):
            lmi._cut_loop(-1.0, bounds, base, np.zeros(N), dirs, 0.5, 0.1, D,
                          A_eq=trace_row, b_eq=[float(D)])
        carried = dirs[: D * D] + dirs[-step:]
        A, rhs = first[0]["A_ub"], first[0]["b_ub"]
        assert A.shape[0] == step + len(carried)
        assert np.array_equal(A[step:], pool_rows(carried, 0.5))
        assert np.array_equal(rhs[step:], np.full(len(carried), -0.1))

    def test_solutions_satisfy_every_cut(self, pool_loops):
        returned = [loop for loops in pool_loops for loop in loops if loop["out"][1] is not None]
        assert returned
        for loop in returned:
            tau, P, _ = loop["out"]
            W = np.array(loop["dirs"])
            level = loop["a"] * tau + loop["b"]
            assert np.min(np.einsum("ij,jk,ik->i", W, P, W)) >= level - lmi._EIG_TOL

    def test_left_out_cuts_reenter_once_violated(self, pool_loops):
        # After an LP whose iterate violates pool cuts left out of it, the
        # next LP carries the `step` most violated of them (all, if fewer).
        # Loops cut short at an interior point learn too few cuts for one to
        # fall out of an LP and be violated again; loops run to the optimum do.
        step, reentered = 4 * (6 + 1), 0
        for loop in pool_loops[0] + pool_loops[1]:
            for (A, x, pool), (A_next, _, _) in zip(loop["lps"], loop["lps"][1:]):
                rows = pool_rows(loop["dirs"][:pool], loop["a"])
                residual = rows @ x + loop["b"]
                out = np.flatnonzero((residual > lmi._EIG_TOL) & ~rows_in(rows, A))
                out = out[np.argsort(-residual[out], kind="stable")][:step]
                assert rows_in(rows[out], A_next).all()
                reentered += out.size
        assert reentered > 0


def parent_clean_rows(rows):
    """`_clean_rows` as it stood with np.unique, the reference for the sort."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-300
    rows = rows[keep] / norms[keep, None]
    if rows.shape[0] > 1:
        rows = np.unique(np.round(rows, 12), axis=0)
    return rows


@lru_cache(maxsize=1)
def clean_rows_cases():
    rng = np.random.default_rng(7)
    V = rng.standard_normal((300, 3))
    antipodal = lmi.quad_form_rows(np.vstack([V, -V, V[:50]]))
    ints = rng.integers(-2, 3, (400, 4)).astype(float)
    ints[ints == 0] = -0.0  # every zero negative, so duplicates agree bit for bit
    lead_ties = rng.standard_normal((300, 3))
    lead_ties[:, 0] = rng.choice([-0.5, 0.25, 1.0], 300)
    lead_zeros = rng.standard_normal((200, 4))
    lead_zeros[:, 0] = rng.choice([0.0, -0.0], 200)
    lead_zeros[::7, 0] = rng.standard_normal(29)
    return {
        "parrilo_bench_sample": cache_for(PARRILO, 3000, 1, 1).rows(1.4142135554517867),
        "first_column_ties": np.vstack([lead_ties, lead_ties[:40]]),
        "first_column_signed_zeros": lead_zeros,
        "exact_duplicates": np.vstack([ints[:200], ints[:200][::-1], 2.5 * ints[:100]]),
        "antipodal_samples": antipodal,
        "sample_rows": cache_for(RAND, 400, 2, 5).rows(0.95),
        "signed_zeros": ints,
        # Below 17 rows np.unique sorts by insertion, which is stable, so the
        # first of the rows equal but for the sign of a zero entry survives.
        "signed_zero_ties": np.array([
            [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [1e-14, 1.0, 2.0], [-1e-14, 1.0, 2.0],
            [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, 3.0], [0.0, -0.0, 3.0],
            [0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [1e-300, 0.0, 0.0],
        ]),
        "all_zero_rows": np.zeros((5, 3)),
        "single_row": np.array([[3e-14, -0.0, 4.0]]),
        "single_zero_row": np.array([[0.0, -0.0]]),
        "width_1": np.array([[2.0], [-3.0], [0.5], [-0.0], [-1.0]]),
        "width_2": rng.integers(-3, 4, (60, 2)).astype(float),
        **{f"width_{w}": np.repeat(rng.standard_normal((40, w)), 3, axis=0)
           for w in (6, 10, 21)},
    }


@pytest.mark.parametrize("case", sorted(clean_rows_cases()))
def test_clean_rows_matches_parent_bit_for_bit(case):
    rows = clean_rows_cases()[case]
    ours, ref = lmi._clean_rows(rows), parent_clean_rows(rows)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case, full_sort", [
    ("parrilo_bench_sample", False), ("sample_rows", False),
    ("first_column_ties", True), ("first_column_signed_zeros", True), ("exact_duplicates", True),
])
def test_clean_rows_sorts_on_one_key_unless_the_first_column_ties(case, full_sort, monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    lmi._clean_rows(clean_rows_cases()[case])
    assert bool(calls) == full_sort


def test_clean_rows_keeps_first_of_signed_zero_ties():
    # Above 16 rows np.unique's sort is not stable, so of two rows equal but
    # for the sign of a zero entry it keeps either one; the LP cannot tell
    # them apart.  The sort keeps the first, and the values and their order
    # are the parent's.
    rng = np.random.default_rng(3)
    rows = rng.integers(-1, 2, (500, 4)) * rng.choice([0.0, -0.0, 1.0, 1e-14], (500, 4))
    ours = lmi._clean_rows(rows)
    assert np.array_equal(ours, parent_clean_rows(rows))
    norms = np.linalg.norm(rows, axis=1)
    unit = np.round(rows[norms > 0] / norms[norms > 0, None], 12)
    for row in ours:
        first = unit[np.flatnonzero((unit == row).all(axis=1))[0]]
        assert first.tobytes() == row.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5e308])
def test_clean_rows_refuses_a_row_without_finite_norm(bad):
    # A NaN row used to fail the zero-row test and drop out: the oracle then
    # called rows [nan, 1, 0] and [-1, 0, -1] feasible.  The norm of the
    # finite row [1.5e308, 1.5e308, 0] is past the float range.
    rows = np.array([[1.0, 0.0, 0.5], [bad, bad, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="constraint row 1: its norm is not finite"):
        lmi._clean_rows(rows)
    with pytest.raises(ValueError, match="constraint row 0:"):
        lmi.max_margin_feasibility(np.array([[bad, bad, 0.0], [-1.0, 0.0, -1.0]]), 2, 100.0)


@pytest.mark.filterwarnings("error")
def test_clean_rows_scales_finite_rows_whose_squares_overflow():
    # Rows near 1e300 are finite, but squaring their entries overflows; their
    # norm comes from the row divided by its largest entry.  A power-of-two
    # scale divides out exactly, so they give the unit rows of the small
    # copies, up to the rounding of the two norms.
    rng = np.random.default_rng(11)
    small, scaled = rng.standard_normal((40, 6)), rng.standard_normal((40, 6))
    rows = np.vstack([small, scaled * 2.0**1000])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(rows[40:], axis=1)).all()
    ours = lmi._clean_rows(rows)
    ref = parent_clean_rows(np.vstack([small, scaled]))
    assert ours.shape == ref.shape and np.allclose(ours, ref, rtol=0.0, atol=1e-15)
    # Rows whose squares do not overflow keep the plain norm, bit for bit.
    assert lmi._clean_rows(small).tobytes() == parent_clean_rows(small).tobytes()
    for bad in ([1e300, np.nan, 0.0], [1e300, -np.inf, 0.0], [1.5e308, -1.5e308, 0.0]):
        with pytest.raises(ValueError, match="constraint row 1: its norm is not finite"):
            lmi._clean_rows(np.array([[1.0, 0.0, 0.0], bad]))


def record_lps(program):
    """The keyword arguments of every LP `program()` issues."""
    lps = []
    lp = lmi.linprog

    def recording(c, **kwargs):
        lps.append(dict(kwargs, c=c))
        return lp(c, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmi, "linprog", recording)
        program()
    return lps


@pytest.mark.parametrize("case", ["parrilo_d1", "parrilo_d2", "rand_d2_generated"])
def test_adapter_matches_scipy_linprog(case, parrilo):
    # `lmi.linprog` builds on scipy's private HiGHS binding; it must stay the
    # LP that scipy.optimize.linprog(method="highs") solves at its tolerances.
    from scipy.optimize import linprog

    obs, d = {
        "parrilo_d1": (simulate(parrilo, 60, 1, seed=2), 1),
        "parrilo_d2": (simulate(parrilo, 40, 1, seed=8), 2),
        # Generated LPs carry few rows and cuts, the more so as each oracle
        # call starts from the last one's optimum and a feasible one ends at
        # its first interior point; at N = 3000 some LPs still exceed the
        # threshold.
        "rand_d2_generated": (simulate(RAND, 3000, 1, seed=5), 2),
    }[case]
    lps = record_lps(lambda: solve_gamma(obs, d))
    for lp in lps:
        ours = lmi.linprog(**lp)
        ref = linprog(**lp, method="highs", options=lmi._LP_TOLERANCES)
        assert ours.status == ref.status == 0
        assert np.array_equal(ours.x, ref.x)
    # Rounds that add rows to the LP HiGHS holds may end on another optimal
    # vertex: they match linprog in status and objective.
    _, solves = record_solves(lambda: solve_gamma(obs, d))
    if case == "rand_d2_generated":
        assert max(len(solve["b_ub"]) for solve in solves) > lmi._ROW_BLOCK
    warm = [solve for solve in solves if not solve["cold"]]
    assert len(solves) - len(warm) == len(lps)
    assert bool(warm) == (case == "rand_d2_generated")
    for solve in warm:
        lp = {key: solve[key] for key in ("c", "A_ub", "b_ub", "bounds", "A_eq", "b_eq")}
        ref = linprog(**lp, method="highs", options=lmi._LP_TOLERANCES)
        assert solve["status"] == ref.status == 0
        assert abs(lp["c"] @ solve["x"] - ref.fun) <= 1e-9


@pytest.fixture
def failing_highs():
    """`lmi._HIGHS` under FAILING options, given `lmi._HIGHS_OPTIONS` back after."""
    lmi._HIGHS.passOptions(FAILING)
    yield
    lmi._HIGHS.passOptions(lmi._HIGHS_OPTIONS)


class TestFailedLP:
    @pytest.fixture(scope="class")
    def first_lp(self, rand_d1):
        return record_lps(lambda: lmi.max_margin_feasibility(*rand_d1, 100.0))[0]

    def test_stall_names_the_model_status(self, rand_d1, failing_highs):
        with pytest.raises(lmi.SolverStallError, match="Iteration limit reached"):
            lmi.max_margin_feasibility(*rand_d1, 100.0)

    def test_solution_checked_like_linprog(self, first_lp, monkeypatch):
        # A negative tolerance rejects every solution HiGHS calls optimal.
        monkeypatch.setattr(lmi, "_RESULT_TOL", -1.0)
        res = lmi.linprog(**first_lp)
        assert res.status == 4
        assert "Optimal" in res.message and "missed" in res.message


# x in [0, 1] with x <= -1: HiGHS reports it infeasible.
INFEASIBLE_LP = dict(c=np.ones(1), A_ub=np.ones((1, 1)), b_ub=-np.ones(1), bounds=[(0.0, 1.0)])


class HighsSpy:
    """Stands in for `lmi._HIGHS` and records the methods called on it."""

    def __init__(self, highs):
        self.highs, self.calls = highs, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.highs, name)


def with_nan(lp, key, index):
    value = np.array(lp[key], dtype=float)
    value[index] = np.nan
    return dict(lp, **{key: value if key != "bounds" else [tuple(b) for b in value]})


@pytest.fixture(scope="module")
def first_lps(parrilo_d2, rand_d1):
    """The first oracle LPs at D = 3 (7 columns) and D = 2 (4 columns)."""
    seven = record_lps(lambda: lmi.max_margin_feasibility(*parrilo_d2, 100.0))[0]
    four = record_lps(lambda: lmi.max_margin_feasibility(*rand_d1, 100.0))[0]
    assert (seven["c"].size, four["c"].size) == (7, 4) and four["A_eq"] is not None
    return seven, four


class TestReusedInstance:
    """One HiGHS instance solves every LP; none may see another's model."""

    def test_no_state_between_lps(self, first_lps):
        from scipy.optimize import linprog

        seven, four = first_lps
        refs = [linprog(**lp, method="highs", options=lmi._LP_TOLERANCES) for lp in first_lps]
        steps = [(seven, 0), (four, 0), (INFEASIBLE_LP, 2), (with_nan(seven, "c", 0), ValueError)]
        for lp, ref in zip(first_lps, refs):
            for step, status in steps:
                if status is ValueError:
                    with pytest.raises(ValueError, match="NaN"):
                        lmi.linprog(**step)
                else:
                    assert lmi.linprog(**step).status == status
                ours = lmi.linprog(**lp)
                assert ours.status == ref.status == 0
                assert ours.x.tobytes() == ref.x.tobytes()

    def test_same_lp_twice(self, first_lps):
        for lp in first_lps:
            first, second = (lmi.linprog(**lp) for _ in range(2))
            assert first.status == second.status == 0
            assert first.x.tobytes() == second.x.tobytes()

    def test_threads_share_the_instance_safely(self, first_lps):
        # More threads than cores, switching often: each LP must still get
        # its own model.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        jobs = list(first_lps) * 16
        expected = [lmi.linprog(**lp).x.tobytes() for lp in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda lp: lmi.linprog(**lp), lp) for lp in jobs]
                got = [future.result(timeout=60).x.tobytes() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestMalformedLP:
    @pytest.fixture(scope="class")
    def lp(self, first_lps):
        return first_lps[1]

    @pytest.mark.parametrize("key, index", [
        ("c", 0), ("A_ub", (0, 0)), ("b_ub", 0), ("A_eq", (0, 0)), ("b_eq", 0),
        ("bounds", (0, 0)), ("bounds", (-1, 1)),
    ])
    def test_nan_refused_before_highs(self, lp, key, index, monkeypatch):
        # HiGHS takes a NaN in c or A_ub and calls the LP optimal; linprog
        # raises on every one of these but the bounds, which it reads as free.
        from scipy.optimize import linprog

        bad = with_nan(lp, key, index)
        if key != "bounds":
            with pytest.raises(ValueError):
                linprog(**bad, method="highs")
        spy = HighsSpy(lmi._HIGHS)
        monkeypatch.setattr(lmi, "_HIGHS", spy)
        with pytest.raises(ValueError, match="NaN"):
            lmi.linprog(**bad)
        assert spy.calls == []

    def test_refused_model_is_not_solved(self, lp, monkeypatch):
        # An infinite matrix entry gets kError from passModel; the model left
        # in the instance must not be solved in its place.
        lmi.linprog(**lp)
        A_ub = lp["A_ub"].copy()
        A_ub[0, 0] = np.inf
        spy = HighsSpy(lmi._HIGHS)
        monkeypatch.setattr(lmi, "_HIGHS", spy)
        with pytest.raises(ValueError, match="refused"):
            lmi.linprog(**dict(lp, A_ub=A_ub))
        assert "passModel" in spy.calls and "run" not in spy.calls

    def test_infinite_bounds_accepted(self, lp):
        from scipy.optimize import linprog

        free = dict(lp, bounds=lp["bounds"][:-1] + [(-np.inf, np.inf)])
        ours = lmi.linprog(**free)
        ref = linprog(**free, method="highs", options=lmi._LP_TOLERANCES)
        assert ours.status == ref.status == 0
        assert ours.x.tobytes() == ref.x.tobytes()

    def test_mismatched_shapes_refused(self, lp, monkeypatch):
        spy = HighsSpy(lmi._HIGHS)
        monkeypatch.setattr(lmi, "_HIGHS", spy)
        for bad in (dict(lp, c=lp["c"][:-1]), dict(lp, b_ub=lp["b_ub"][:-1]),
                    dict(lp, bounds=lp["bounds"][:-1])):
            with pytest.raises(ValueError, match="shapes"):
                lmi.linprog(**bad)
        assert spy.calls == []


class StubHighs:
    def __init__(self, outcome):
        self.outcome = outcome

    def passModel(self, *args):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome", [lmi._highs.HighsStatus.kError, TypeError("no overload")])
def test_import_check_names_scipy_version(outcome, monkeypatch):
    import scipy

    lmi._check_array_model()  # the binding in use takes a model from arrays
    monkeypatch.setattr(lmi, "_HIGHS", StubHighs(outcome))
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
        lmi._check_array_model()


def test_loader_failure_names_scipy_version(tmp_path):
    import scipy

    version = re.escape(f"scipy {scipy.__version__}")
    with pytest.raises(ImportError, match=version):
        lmi._load_highs(tmp_path)  # no extension there
    (tmp_path / f"_core{importlib.machinery.EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
    with pytest.raises(ImportError, match=version):
        lmi._load_highs(tmp_path)
    assert sys.modules[lmi._HIGHS_MODULE] is lmi._highs


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout's jsrcert."""
    src = str(Path(lmi.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["jsrcert", "jsrcert.cli"])
def test_import_leaves_scipy_optimize_unloaded(module):
    # scipy.optimize's package init pulls in scipy.linalg, scipy.sparse and
    # more, and triples the cold start of every command.
    out = _fresh_python(f"import sys, {module}\n"
                        "print(*(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse')"
                        " if m in sys.modules))")
    assert out.split() == []


@pytest.mark.parametrize("scipy_first", [False, True])
def test_scipy_optimize_shares_the_binding(scipy_first):
    imports = ["import jsrcert.lmi", "from scipy.optimize import linprog"]
    code = "\n".join(imports[::-1] if scipy_first else imports) + """
import sys
assert jsrcert.lmi._highs is sys.modules["scipy.optimize._highspy._core"]
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, None)] * 2, method="highs")
print(res.status, res.fun, *res.x)
"""
    assert _fresh_python(code).split() == ["0", "1.0", "1.0", "0.0"]
