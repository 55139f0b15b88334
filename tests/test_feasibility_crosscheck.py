"""Cross-check the LP-cut feasibility oracle against independent references.

The engine's verdicts drive every certificate, so they are compared here
against references that share no code with it.  Soundness directions:

* a witness returned by the oracle must verify numerically (checked in the
  certifier tests);
* when a reference proves the program infeasible, the oracle must agree;
* when a reference finds a shape that meets every row, the oracle must
  report feasible.

At lift dimension D = 2 a grid over the trace-normalized P decides the
oracle's own program without any solver.  The interior-point SDP reference
runs only where cvxpy is installed.
"""

import numpy as np
import pytest

from jsrcert import lmi
from jsrcert.certifier import SolveOptions, _PairCache
from jsrcert.lift import lift_batch
from jsrcert.sampling import ModeSet, simulate

GRID_STEP = 0.005


def grid_reference(rows, c_bound, step=GRID_STEP):
    """The oracle's verdict on 2x2 `rows` as decided by a grid, or None.

    The oracle maximizes the margin min_i -<r_i, vech P> over unit-norm rows
    r_i and P = [[1+a, b], [b, 1-a]] (trace 2) whose smaller eigenvalue
    1 - |(a, b)| is at least min(2/c_bound, 0.9); it answers feasible when
    the margin reaches lmi.FEASIBILITY_MARGIN.  A grid point with that
    margin proves the program feasible.  Each margin is linear in (a, b)
    with gradient g_i = -(r_i0 - r_i2, r_i1), and every point of the disc
    lies within step*sqrt(2) of a grid point in the disc (round both
    coordinates toward zero), so the true optimum is at most the best grid
    margin plus step*sqrt(2)*max_i |g_i|; when that is below zero the
    program is infeasible.  Anything between is left undecided (None).
    """
    rows = rows[np.linalg.norm(rows, axis=1) > 1e-300]
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    radius = 1.0 - min(2.0 / c_bound, 0.9)
    k = np.arange(-int(radius / step), int(radius / step) + 1) * step
    a, b = (g.ravel() for g in np.meshgrid(k, k))
    inside = a * a + b * b <= radius * radius
    a, b = a[inside], b[inside]
    margin = np.full(a.shape, np.inf)
    for r0, r1, r2 in rows:
        np.minimum(margin, -(r0 * (1.0 + a) + r1 * b + r2 * (1.0 - a)), out=margin)
    best = float(np.max(margin))
    slope = float(np.max(np.hypot(rows[:, 0] - rows[:, 2], rows[:, 1])))
    if best >= lmi.FEASIBILITY_MARGIN:
        return True
    if best + step * np.sqrt(2.0) * slope < 0.0:
        return False
    return None


def oracle_feasible(obs, d, gamma, opts):
    """Verdict of the bisection's feasibility oracle at gamma."""
    cache = _PairCache(obs, d)
    return lmi.max_margin_feasibility(cache.rows(gamma), cache.dim, opts.c_bound).feasible


def grid_verdicts(obs, gammas, opts):
    """(oracle, reference) verdicts at d = 1 wherever the grid decides."""
    cache = _PairCache(obs, 1)
    assert cache.dim == 2
    pairs = []
    for gamma in gammas:
        rows = cache.rows(float(gamma))
        ref = grid_reference(rows, opts.c_bound)
        if ref is not None:
            ours = lmi.max_margin_feasibility(rows, cache.dim, opts.c_bound).feasible
            pairs.append((ours, ref, float(gamma)))
    return pairs


def test_grid_reference_matches_oracle_on_random_instances():
    opts = SolveOptions()
    pairs = []
    for trial in range(8):
        rng = np.random.default_rng(1000 + trial)
        m = int(rng.integers(1, 4))
        mats = tuple(rng.uniform(-1.2, 1.2, size=(2, 2)) for _ in range(m))
        obs = simulate(ModeSet(mats), 25, 1, seed=trial)
        lam = float(np.max(np.linalg.norm(obs.XL, axis=1)))
        pairs += grid_verdicts(obs, np.linspace(0.3, 1.3, 11) * lam, opts)
    for ours, ref, gamma in pairs:
        assert ours == ref, f"oracle says {ours}, grid proves {ref} (gamma={gamma})"
    # The grid must decide most cases both ways, or the check is empty.
    assert sum(ref for _, ref, _ in pairs) >= 20
    assert sum(not ref for _, ref, _ in pairs) >= 20


def test_grid_reference_on_parrilo_quadratic(parrilo):
    # No common quadratic certifies the pair below gamma = sqrt(2).
    obs = simulate(parrilo, 200, 1, seed=2)
    pairs = grid_verdicts(obs, (1.2, 1.3, 1.38, 1.45, 1.5, 1.7), SolveOptions())
    assert [ref for _, ref, _ in pairs] == [False, False, False, True, True, True]
    assert [ours for ours, _, _ in pairs] == [False, False, False, True, True, True]


@pytest.fixture(scope="module")
def cp():
    return pytest.importorskip("cvxpy")


def reference_min_lambda_max(cp, obs, d, gamma):
    """min t s.t. I <= P <= t I and all sampled decrease constraints."""
    X0, XL = obs.endpoints()
    U, V = lift_batch(X0, d), lift_batch(XL, d)
    D = U.shape[1]
    P = cp.Variable((D, D), symmetric=True)
    t = cp.Variable()
    g = gamma ** (2 * d * obs.l)
    constraints = [
        P >> np.eye(D),
        P << t * np.eye(D),
        cp.sum(cp.multiply(V @ P, V), axis=1) <= g * cp.sum(cp.multiply(U @ P, U), axis=1),
    ]
    problem = cp.Problem(cp.Minimize(t), constraints)
    problem.solve(solver="CLARABEL")
    if problem.status in ("optimal", "optimal_inaccurate"):
        return float(t.value)
    if problem.status in ("infeasible", "infeasible_inaccurate"):
        return None
    pytest.skip(f"reference solver returned status {problem.status}")


@pytest.mark.parametrize("trial", range(8))
def test_verdicts_match_reference(cp, trial):
    rng = np.random.default_rng(1000 + trial)
    m = int(rng.integers(1, 4))
    mats = tuple(rng.uniform(-1.2, 1.2, size=(2, 2)) for _ in range(m))
    obs = simulate(ModeSet(mats), 25, 1, seed=trial)
    d = 1 if trial % 2 == 0 else 2
    opts = SolveOptions()
    lam = float(np.max(np.linalg.norm(obs.XL, axis=1)))
    for gamma in (0.5 * lam, 0.9 * lam, 1.2 * lam + 1e-6):
        ours = oracle_feasible(obs, d, float(gamma), opts)
        ref = reference_min_lambda_max(cp, obs, d, float(gamma))
        if ref is None:
            assert not ours, f"oracle feasible where reference proves infeasible (gamma={gamma})"
        elif ref <= opts.c_bound / 4.0:
            assert ours, f"oracle infeasible where reference finds lambda_max={ref} (gamma={gamma})"
        # Between the two thresholds either verdict is admissible: the
        # oracle's norm cap is deliberately fuzzy within a dimension factor.


def test_parrilo_quartic_boundary(cp, parrilo):
    obs = simulate(parrilo, 400, 1, seed=2)
    opts = SolveOptions()
    for gamma in (0.8, 0.95, 1.05, 1.3):
        ours = oracle_feasible(obs, 2, gamma, opts)
        ref = reference_min_lambda_max(cp, obs, 2, gamma)
        if ref is None:
            assert not ours
        elif ref <= opts.c_bound / 4.0:
            assert ours
