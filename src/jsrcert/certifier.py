"""Sampled Lyapunov programs: growth rate, decrease rate, and tie-break.

Given observed endpoint pairs (x0, xl), three quantities are computed:

* `solve_lambda` -- the largest observed one-step-per-trace growth,
  max ||xl|| over the sample (initial states are unit norm);
* `solve_gamma` -- the smallest decrease rate gamma for which some shape
  matrix P with I <= P <= C*I makes the lifted quadratic form decrease on
  every observation, found by bisection over the semidefinite feasibility
  oracle `lmi.max_margin_feasibility`, which also fixes the margin a
  feasible answer needs (the problem is quasi-convex: the feasible set only
  grows with gamma);
* the tie-break -- among shapes feasible at (slightly above) the optimum,
  one minimizing lambda_max(P), hence the condition number, which enters
  the certificate bound directly; when that solve stalls, the bisection
  witness at gamma* is kept.

The bisection and the tie-break of one certificate share a `_PairCache`:
the lifted rows and the semidefiniteness cuts learned so far, which stay
valid for every gamma.  Degree d = 1 is the common-quadratic case; higher d
certifies with sum-of-squares forms via the monomial lift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import lmi
from .lift import SymMatrix, lift_batch, lift_dimension, matrix_metrics
from .lmi import SolverStallError
from .sampling import ObservationSet

__all__ = [
    "SolveOptions",
    "LyapunovCandidate",
    "SolverStallError",
    "MAX_LIFT_DIM",
    "solve_lambda",
    "solve_gamma",
]

# Lift dimensions beyond this make the D(D+1)/2-variable feasibility
# problems unreasonable at desk scale; rejected before any lifting happens.
MAX_LIFT_DIM = 20

# Relative inflation of gamma* at which the tie-break re-solves, so that
# shapes feasible only at the bisection limit remain admissible.
TIEBREAK_SLACK = 1e-7


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    `c_bound` is the eigenvalue ceiling C that compactifies the set of
    admissible shape matrices.  The certificate is valid for any C; the
    default keeps certificates useful: the condition number kappa <= sqrt(C)
    of the shape enters the reported bound multiplicatively, so an enormous
    C lets ill-conditioned shapes shave the optimum a little while ruining
    the certificate a lot.  Reports flag when the ceiling binds.
    """

    c_bound: float = 100.0
    bisection_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("c_bound", "bisection_rel_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.c_bound <= 1.0:
            raise ValueError("c_bound must exceed 1 (P = I must be admissible)")


@dataclass(frozen=True)
class LyapunovCandidate:
    """Certified pair (gamma, P): the lifted form decreases at rate gamma.

    `gamma` is the rate at which P was certified feasible; for tie-broken
    candidates this is the bisection optimum inflated by the tie-break
    slack.
    """

    degree: int
    gamma: float
    P: SymMatrix
    kappa: float
    c_bound_binding: bool = False


class _PairCache:
    """Lifted endpoints with precomputed quadratic-form rows.

    `dirs` holds the semidefiniteness probe directions learned by the LPs on
    these rows; they depend only on the lift dimension, so every oracle call
    on the cache (any gamma, any row subset) starts from them.
    """

    def __init__(self, obs: ObservationSet, degree: int):
        D = lift_dimension(obs.n, degree)
        if D > MAX_LIFT_DIM:
            raise ValueError(
                f"lift dimension D={D} exceeds the supported maximum {MAX_LIFT_DIM} "
                f"(n={obs.n}, degree={degree})"
            )
        self.degree = degree
        self.l = obs.l
        self.dim = D
        self.lambda_star = solve_lambda(obs)
        self.Wu = lmi.quad_form_rows(lift_batch(obs.X0, degree))
        self.Wv = lmi.quad_form_rows(lift_batch(obs.XL, degree))
        self.dirs: list[np.ndarray] = []

    def rows(self, gamma: float) -> np.ndarray:
        factor = gamma ** (2 * self.degree * self.l)
        return self.Wv - factor * self.Wu


def solve_lambda(obs: ObservationSet) -> float:
    """Largest observed endpoint norm, the sampled growth-rate optimum."""
    if obs.N == 0:
        raise ValueError("at least one observation is required")
    _, XL = obs.endpoints()
    return float(np.max(np.linalg.norm(XL, axis=1)))


def _bisect_gamma(cache: _PairCache, opts: SolveOptions) -> tuple[float, np.ndarray]:
    lam = cache.lambda_star
    D = cache.dim
    if lam == 0.0:
        return 0.0, np.eye(D)
    hi = lam ** (1.0 / cache.l)
    lo = 0.0
    witness = np.eye(D)  # feasible at hi: ||xl||^2d <= lambda*^2d for all rows
    for _ in range(300):
        if hi - lo <= opts.bisection_rel_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        try:
            result = lmi.max_margin_feasibility(cache.rows(mid), D, opts.c_bound, cache.dirs)
            feasible = result.feasible
        except SolverStallError as exc:
            # Undecided counts as not-proven-feasible: the stored upper
            # witness stays valid, so the certificate merely loosens.
            warnings.warn(f"feasibility oracle undecided at gamma={mid:.6g}: {exc}",
                          RuntimeWarning, stacklevel=2)
            feasible = False
        if feasible:
            hi = mid
            witness = result.P
        else:
            lo = mid
    return hi, witness


def _candidate(degree: int, gamma: float, P: np.ndarray, opts: SolveOptions) -> LyapunovCandidate:
    m = matrix_metrics(P)
    return LyapunovCandidate(
        degree=degree,
        gamma=gamma,
        P=SymMatrix.from_full(P),
        kappa=m.kappa,
        c_bound_binding=bool(m.lambda_max >= 0.9 * opts.c_bound),
    )


def _tie_break_cache(
    cache: _PairCache,
    gamma_star: float,
    witness: np.ndarray,
    opts: SolveOptions,
) -> LyapunovCandidate:
    gamma_tb = gamma_star * (1.0 + TIEBREAK_SLACK)
    hint = matrix_metrics(witness).lambda_max * (1.0 + 1e-6)
    try:
        P = lmi.min_lambda_max(
            cache.rows(gamma_tb), cache.dim, opts.c_bound, upper_hint=hint, dirs=cache.dirs
        )
        gamma_cert = gamma_tb
    except SolverStallError:
        P, gamma_cert = witness, gamma_star
    if matrix_metrics(P).kappa > matrix_metrics(witness).kappa + 1e-6:
        # The slackened problem should never beat the bisection witness;
        # keep the better-conditioned shape if it somehow does.
        P, gamma_cert = witness, gamma_star
    return _candidate(cache.degree, gamma_cert, P, opts)


def solve_gamma(
    obs: ObservationSet, d: int, opts: SolveOptions | None = None, tie_break: bool = True
) -> tuple[float, LyapunovCandidate]:
    """Minimal certified decrease rate gamma* of the sampled program.

    Bisects gamma over [0, lambda*^(1/l)] (the upper end is always feasible
    with P = I) until the bracket shrinks below bisection_rel_tol relative
    to the upper end, then, unless `tie_break` is false, applies the
    condition-number tie-break at the returned gamma.
    """
    opts = opts or SolveOptions()
    cache = _PairCache(obs, d)
    gamma_star, witness = _bisect_gamma(cache, opts)
    if tie_break:
        cand = _tie_break_cache(cache, gamma_star, witness, opts)
    else:
        cand = _candidate(d, gamma_star, witness, opts)
    return gamma_star, cand
