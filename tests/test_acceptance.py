"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the heavy artifacts (the bound-vs-N sweep and the 100-seed validity
study) are computed once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from jsrcert.caps import delta_cap, min_samples_finite
from jsrcert.certifier import SolveOptions, solve_gamma
from jsrcert.cli import SweepConfig, certify_run, run_sweep
from jsrcert.lift import (
    d_lift_matrix,
    kron_power,
    lift_batch,
    lift_coefficient_matrix,
)
from jsrcert.oracles import jsr_lower_bound, support_constraints, whitebox_gamma
from jsrcert.sampling import save_modes, simulate

SQRT2 = math.sqrt(2.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep_rows(parrilo, tmp_path_factory):
    """Criterion-3 sweep: runs=10, N in {100, 1000, 10000}, degrees {1, 2}."""
    modes_path = tmp_path_factory.mktemp("sweep") / "parrilo.json"
    save_modes(parrilo, modes_path)
    config = SweepConfig(
        modes_path=str(modes_path),
        n_values=(100, 1000, 10000),
        runs=10,
        degrees=(1, 2),
        m_upper=2,
        beta=0.95,
        beta1=0.95,
        l=1,
        seed=20240,
    )
    start = time.monotonic()
    rows = run_sweep(config)
    elapsed = time.monotonic() - start
    return rows, elapsed


@pytest.fixture(scope="session")
def validity_reports(parrilo):
    """Criterion-4 study: 100 seeds, N=1000, d=1."""
    reports = []
    for seed in range(100):
        obs = simulate(parrilo, 1000, 1, seed=seed)
        reports.append(certify_run(obs, 1, 0.95, 0.95, 2))
    return reports


def test_criterion_1_whitebox_quadratic_optimum(parrilo):
    start = time.monotonic()
    result = whitebox_gamma(parrilo, 1, 1, grid=720)
    elapsed = time.monotonic() - start
    ok = 1.404 <= result.gamma <= 1.425 and elapsed < 60.0
    report(1, ok, f"whitebox quadratic optimum {result.gamma:.6f} in [1.404, 1.425], {elapsed:.1f}s")
    assert ok


def test_criterion_2_true_jsr_floor(parrilo, sweep_rows, validity_reports):
    floor = jsr_lower_bound(parrilo, 8)
    rows, _ = sweep_rows
    finite_bounds = [r["bound"] for r in rows if r["finite"]]
    finite_bounds += [r.jsr_upper_bound for r in validity_reports if r.finite]
    ok = floor >= 1.0 - 1e-9 and all(b > floor for b in finite_bounds)
    report(2, ok, f"spectral floor {floor:.9f} >= 1; {len(finite_bounds)} finite bounds all above it")
    assert ok


def test_criterion_3_sos_improvement_sweep(sweep_rows):
    rows, elapsed = sweep_rows
    means = {}
    for r in rows:
        means.setdefault((r["degree"], r["N"]), []).append(r["bound"])
    means = {k: sum(v) / len(v) for k, v in means.items()}
    n_values = (100, 1000, 10000)
    mono = all(
        means[(d, a)] >= means[(d, b)] - 1e-12
        for d in (1, 2)
        for a, b in zip(n_values, n_values[1:])
    )
    crossover = means[(2, 10000)] < means[(1, 10000)]
    ok = mono and crossover and elapsed < 1800.0
    detail = (
        f"means d=1 {[round(means[(1, N)], 4) for N in n_values]}, "
        f"d=2 {[round(means[(2, N)], 4) for N in n_values]}, {elapsed:.0f}s"
    )
    report(3, ok, detail)
    assert ok


def test_criterion_4_probabilistic_validity(validity_reports):
    finite = [r for r in validity_reports if r.finite]
    valid = [r for r in finite if r.jsr_upper_bound >= 1.0]
    ok = len(valid) == len(finite) and len(valid) >= 90
    report(4, ok, f"{len(valid)}/100 finite bounds >= 1 (>= 90 required)")
    assert ok


def test_criterion_5_cap_threshold_closed_forms():
    eps_grid = np.linspace(0.0025, 0.4975, 100)
    err2 = max(abs(delta_cap(float(e), 2) - math.cos(math.pi * e)) for e in eps_grid)
    err3 = max(abs(delta_cap(float(e), 3) - (1.0 - 2.0 * e)) for e in eps_grid)
    ok = err2 <= 1e-10 and err3 <= 1e-10
    report(5, ok, f"max closed-form error n=2: {err2:.2e}, n=3: {err3:.2e}")
    assert ok


def test_criterion_6_finite_bound_threshold():
    n = min_samples_finite(0.95, 5, 3)
    ok = 370 <= n <= 378
    report(6, ok, f"min samples for a finite bound at m=5, l=3: {n} (band [370, 378])")
    assert ok


def test_criterion_7_degree_one_reduction_identity():
    from jsrcert.bounds import jsr_upper_bound as make_report
    from jsrcert.caps import ConfidenceBudget, cap_params, delta_cap as dcap, eps_cover, eps_one

    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    for _ in range(50):
        gamma = rng.uniform(0.1, 2.5)
        kappa = rng.uniform(1.0, 40.0)
        lam = rng.uniform(0.0, 3.0)
        N = int(rng.integers(8, 20000))
        l = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        budget = ConfidenceBudget(beta=0.95, beta1=0.95, m=m, l=l, N=N, n=2, d=1)
        rep = make_report(gamma, kappa, lam, budget)
        delta1 = dcap(eps_one(0.95, m, l, N), 2)
        if delta1 == 0.0:
            continue
        Delta = cap_params(eps_cover(0.95, float(m**l), 3, N), 2).Delta
        A = lam / delta1 ** (1.0 / l)
        quadratic = (gamma**l + (gamma**l + A) * Delta * kappa) ** (1.0 / l)
        worst = max(worst, abs(rep.jsr_upper_bound - quadratic) / quadratic)
        count += 1
    ok = worst <= 1e-12 and count >= 30
    report(7, ok, f"worst relative gap between d=1 lifted and quadratic formulas: {worst:.2e} ({count} finite tuples)")
    assert ok


def test_criterion_8_lift_algebra_suite():
    rng = np.random.default_rng(88)
    cases = 0
    ok = True
    # Norm identities for the lift and the Kronecker power (400 cases).
    for d in (1, 2, 3):
        for n in (2, 3):
            X = rng.uniform(-2, 2, size=(50, n))
            lifted = lift_batch(X, d)
            base = np.linalg.norm(X, axis=1) ** d
            ok &= bool(
                np.all(np.abs(np.linalg.norm(lifted, axis=1) - base) <= 1e-12 * np.maximum(base, 1e-30))
            )
            cases += 50
            for x in X[:17]:
                ok &= abs(np.linalg.norm(kron_power(x, d)) - np.linalg.norm(x) ** d) <= 1e-12 * max(
                    np.linalg.norm(x) ** d, 1e-30
                )
                cases += 1
    # Lift homomorphism on matrix products and vector actions (300 cases).
    for d in (1, 2, 3):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            A = rng.uniform(-2, 2, size=(n, n))
            B = rng.uniform(-2, 2, size=(n, n))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            Ad, Bd = d_lift_matrix(A, d), d_lift_matrix(B, d)
            scale = np.linalg.norm(Ad, 2) * np.linalg.norm(Bd, 2)
            ok &= np.linalg.norm(d_lift_matrix(A @ B, d) - Ad @ Bd, 2) <= 1e-9 * max(scale, 1e-30)
            cases += 1
            rhs = lift_batch(A @ x, d)[0]
            ok &= np.linalg.norm(Ad @ lift_batch(x, d)[0] - rhs) <= 1e-9 * max(
                np.linalg.norm(rhs), 1e-30
            )
            cases += 1
    # Coefficient-matrix construction invariants (300+ cases).
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        C = lift_coefficient_matrix(n, d)
        ok &= bool(np.allclose(C @ C.T, np.eye(C.shape[0]), atol=1e-12))
        ok &= abs(np.linalg.norm(C, 2) - 1.0) <= 1e-12
        cases += 2
        for _ in range(60):
            x = rng.uniform(-1.5, 1.5, size=n)
            ok &= bool(np.allclose(C @ kron_power(x, d), lift_batch(x, d)[0], atol=1e-11))
            cases += 1
    ok = bool(ok) and cases >= 1000
    report(8, ok, f"lift algebra randomized suite: {cases} cases")
    assert ok


def test_criterion_9_support_set_cardinality(parrilo):
    opts = SolveOptions()
    failures = []
    for seed in range(20):
        obs = simulate(parrilo, 10, 1, seed=seed)
        gamma_full, _ = solve_gamma(obs, 1, opts)
        res = support_constraints(obs, 1, opts)
        tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
        if len(res.indices) > 4 or res.gamma < gamma_full - tol:
            failures.append((seed, len(res.indices), res.gamma, gamma_full))
    ok = not failures
    report(9, ok, f"20/20 greedy irreducible support sets of size <= 4 reproduce gamma*" if ok else f"failures: {failures}")
    assert ok


def test_criterion_10_nested_monotonicity(parrilo):
    opts = SolveOptions()
    violations = []
    for seed in range(20):
        big = simulate(parrilo, 40, 1, seed=1000 + seed)
        small = big.subset(range(20))
        g_small, _ = solve_gamma(small, 1, opts)
        g_big, _ = solve_gamma(big, 1, opts)
        tol = opts.bisection_rel_tol * max(g_big, 1e-12)
        if g_small > g_big + 2 * tol:
            violations.append((seed, g_small, g_big))
    ok = not violations
    report(10, ok, "20/20 nested pairs monotone" if ok else f"violations: {violations}")
    assert ok
