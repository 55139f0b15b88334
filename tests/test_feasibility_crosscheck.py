"""Cross-check the LP-cut feasibility oracle against an interior-point SDP.

The engine's verdicts drive every certificate, so they are compared here
against an independent solver on random instances.  Soundness directions:

* a witness returned by the oracle must verify numerically (checked in the
  certifier tests without cvxpy);
* when the reference solver certifies infeasibility at unbounded condition
  number, the capped oracle must agree;
* when the reference solver finds a well-conditioned shape (lambda_max far
  below the oracle's cap), the oracle must report feasible.
"""

import numpy as np
import pytest

from jsrcert import lmi
from jsrcert.certifier import SolveOptions, _PairCache
from jsrcert.lift import lift_batch
from jsrcert.sampling import ModeSet, simulate

cp = pytest.importorskip("cvxpy")


def reference_min_lambda_max(obs, d, gamma):
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


def oracle_feasible(obs, d, gamma, opts):
    """Verdict of the bisection's feasibility oracle at gamma."""
    X0, XL = obs.endpoints()
    cache = _PairCache(X0, XL, d, obs.l)
    return lmi.max_margin_feasibility(
        cache.rows(gamma), cache.dim, opts.c_bound, opts.feasibility_margin
    ).feasible


@pytest.mark.parametrize("trial", range(8))
def test_verdicts_match_reference(trial):
    rng = np.random.default_rng(1000 + trial)
    m = int(rng.integers(1, 4))
    mats = tuple(rng.uniform(-1.2, 1.2, size=(2, 2)) for _ in range(m))
    obs = simulate(ModeSet(mats), 25, 1, seed=trial)
    d = 1 if trial % 2 == 0 else 2
    opts = SolveOptions()
    lam = max(np.linalg.norm(ob.xl) for ob in obs.observations)
    for gamma in (0.5 * lam, 0.9 * lam, 1.2 * lam + 1e-6):
        ours = oracle_feasible(obs, d, float(gamma), opts)
        ref = reference_min_lambda_max(obs, d, float(gamma))
        if ref is None:
            assert not ours, f"oracle feasible where reference proves infeasible (gamma={gamma})"
        elif ref <= opts.c_bound / 4.0:
            assert ours, f"oracle infeasible where reference finds lambda_max={ref} (gamma={gamma})"
        # Between the two thresholds either verdict is admissible: the
        # oracle's norm cap is deliberately fuzzy within a dimension factor.


def test_parrilo_quartic_boundary(parrilo):
    obs = simulate(parrilo, 400, 1, seed=2)
    opts = SolveOptions()
    for gamma in (0.8, 0.95, 1.05, 1.3):
        ours = oracle_feasible(obs, 2, gamma, opts)
        ref = reference_min_lambda_max(obs, 2, gamma)
        if ref is None:
            assert not ours
        elif ref <= opts.c_bound / 4.0:
            assert ours
