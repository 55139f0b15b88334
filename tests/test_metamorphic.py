"""End-to-end metamorphic relations of `certify_run`.

Each relation maps a sample to another whose certificate is known from the
first, so it needs no recorded reference and holds for any correct engine:

* sample order, and the sign of any x0 or xl, change nothing;
* xl -> 2*xl maps gamma* to 2^(1/l)*gamma* and leaves kappa unchanged;
* an orthogonal change of state coordinates, x -> Qx on both endpoints,
  leaves gamma*, kappa and the bound unchanged.

The first two are bit-exact: the lifted rows change by a sign or a power
of two, which row cleaning removes exactly.  The rotation is exact only in
exact arithmetic (the lift is an isometry and I <= P <= C*I is orthogonally
invariant), so its tolerances come from the solver's own resolution: each
bisection brackets the same optimum to `bisection_rel_tol`, and the
tie-break resolves lambda_max, hence kappa, to 1e-6.
"""

import numpy as np
import pytest

from jsrcert.certifier import SolveOptions
from jsrcert.cli import certify_run
from jsrcert.sampling import ModeSet, ObservationSet, simulate

# Two brackets of width bisection_rel_tol * gamma*, each holding the optimum.
GAMMA_RTOL = 2 * SolveOptions().bisection_rel_tol
# The tie-break's upper-hint inflation and its kappa acceptance slack.
KAPPA_RTOL = 1e-6
# bound^(dl) is increasing in gamma*^(dl) and linear in kappa, so its relative
# change is at most dl times gamma*'s plus kappa's: the bound's, at most the sum.
BOUND_RTOL = GAMMA_RTOL + KAPPA_RTOL

PARRILO = ModeSet((np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])))
# Two random 3x3 modes, each scaled to unit spectral radius.
_A = np.random.default_rng(0).standard_normal((2, 3, 3))
RAND3 = ModeSet(tuple(a / np.max(np.abs(np.linalg.eigvals(a))) for a in _A))

CASES = {  # (modes, N): n = 2 and n = 3, each run at d = 1 and d = 2
    "parrilo": (PARRILO, 1000),
    "rand3": (RAND3, 1000),
}


def certify(X0, XL, d):
    return certify_run(ObservationSet(1, X0, XL), d, 0.95, 0.95, 2)


@pytest.fixture(scope="module", params=[
    pytest.param((name, d), id=f"{name}-d{d}") for name in CASES for d in (1, 2)])
def case(request):
    """(X0, XL, d, report) of one set and degree."""
    name, d = request.param
    modes, N = CASES[name]
    obs = simulate(modes, N, 1, seed=7)
    X0, XL = np.array(obs.X0), np.array(obs.XL)
    return X0, XL, d, certify(X0, XL, d)


def outputs(report):
    return (report.gamma_star, report.kappa, report.lambda_star, report.jsr_upper_bound,
            report.provenance["certified_gamma"])


def test_sample_order_changes_nothing(case):
    X0, XL, d, report = case
    order = np.random.default_rng(1).permutation(len(X0))
    assert outputs(certify(X0[order], XL[order], d)) == outputs(report)


def test_signs_change_nothing(case):
    X0, XL, d, report = case
    rng = np.random.default_rng(2)
    s0, sl = (rng.choice([-1.0, 1.0], (len(X0), 1)) for _ in range(2))
    assert outputs(certify(s0 * X0, sl * XL, d)) == outputs(report)


def test_doubling_xl_doubles_gamma(case):
    X0, XL, d, report = case
    doubled = certify(X0, 2.0 * XL, d)
    assert doubled.gamma_star == 2.0 * report.gamma_star
    assert doubled.provenance["certified_gamma"] == 2.0 * report.provenance["certified_gamma"]
    assert doubled.lambda_star == 2.0 * report.lambda_star
    assert doubled.kappa == report.kappa


@pytest.mark.parametrize("seed", [3, 4])
def test_orthogonal_coordinates_change_nothing(case, seed):
    X0, XL, d, report = case
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((X0.shape[1],) * 2))
    rotated = certify(X0 @ Q.T, XL @ Q.T, d)
    assert report.finite and rotated.finite
    assert rotated.gamma_star == pytest.approx(report.gamma_star, rel=GAMMA_RTOL, abs=0)
    assert rotated.kappa == pytest.approx(report.kappa, rel=KAPPA_RTOL, abs=0)
    assert rotated.jsr_upper_bound == pytest.approx(report.jsr_upper_bound, rel=BOUND_RTOL, abs=0)
