"""Sampled Lyapunov programs: growth rate, decrease rate, and tie-break.

Given observed endpoint pairs (x0, xl), three quantities are computed:

* `solve_lambda` -- the largest observed one-step-per-trace growth,
  max ||xl|| over the sample (initial states are unit norm);
* `solve_gamma` -- the smallest decrease rate gamma for which some shape
  matrix P with I <= P <= C*I makes the lifted quadratic form decrease on
  every observation, found by bisection over the verdicts of the
  feasibility oracle `lmi.max_margin_feasibility` (the problem is
  quasi-convex: the feasible set only grows with gamma); the bisection
  builds each witness itself, with `lmi.feasibility_witness`;
* the tie-break -- among shapes feasible at (slightly above) the optimum,
  one minimizing lambda_max(P), hence the condition number, which enters
  the certificate bound directly; when that solve stalls, or its rows
  overflow at huge l, the bisection witness at gamma* is kept.

`solve_gamma` always applies the tie-break; the white-box oracles, which
need only gamma*, run `_bisect_gamma` on a `_PairCache` of their own and
on the verdicts alone, with no witness.  The
bisection and the tie-break of one certificate share a `_PairCache`: the
lifted rows and the semidefiniteness cuts learned so far, which stay valid
for every gamma.  Degree d = 1 is the common-quadratic case; higher d
certifies with sum-of-squares forms via the monomial lift.
"""

from __future__ import annotations

import math
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
    "checked_lift_dimension",
    "solve_lambda",
    "solve_gamma",
]

# Lift dimensions beyond this make the D(D+1)/2-variable feasibility
# problems unreasonable at desk scale; rejected before any lifting happens.
MAX_LIFT_DIM = 20


def checked_lift_dimension(n: int, degree: int) -> int:
    """The lift dimension of degree-`degree` forms on R^n, at most MAX_LIFT_DIM."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    D = lift_dimension(n, degree)
    if D > MAX_LIFT_DIM:
        raise ValueError(
            f"lift dimension D={D} exceeds the supported maximum {MAX_LIFT_DIM} "
            f"(n={n}, degree={degree})"
        )
    return D


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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.c_bound <= 1.0:
            raise ValueError("c_bound must exceed 1 (P = I must be admissible)")
        if self.bisection_rel_tol >= 1.0:  # the bracket [0, lambda*] would end the bisection
            raise ValueError(f"bisection_rel_tol must be below 1, got {self.bisection_rel_tol!r}")


@dataclass(frozen=True)
class LyapunovCandidate:
    """Certified pair (gamma, P): the lifted form decreases at rate gamma.

    `gamma` is the rate at which P was certified feasible; for tie-broken
    candidates this is the bisection optimum inflated by the tie-break
    slack.  `oracle_undecided` counts the bisection steps whose oracle
    stalled (each counted infeasible), and `tiebreak_fallback` says that the
    tie-break kept the bisection witness.
    """

    gamma: float
    P: SymMatrix
    kappa: float
    c_bound_binding: bool = False
    oracle_undecided: int = 0
    tiebreak_fallback: bool = False


class _PairCache:
    """Lifted endpoints with precomputed quadratic-form rows.

    `dirs` holds the semidefiniteness probe directions learned by the LPs on
    these rows; they depend only on the lift dimension, so every oracle call
    on the cache (any gamma, any row subset) starts from them.  `undecided`
    counts the bisection steps on the cache whose oracle stalled.  A sample
    whose lifted rows, or whose factor gamma^(2dl) at the top of the
    bisection bracket (lambda*^(2d)), overflow is rejected.
    """

    def __init__(self, obs: ObservationSet, degree: int):
        self.degree = degree
        self.l = obs.l
        self.dim = checked_lift_dimension(obs.n, degree)
        with np.errstate(over="ignore", invalid="ignore"):
            self.lambda_star = solve_lambda(obs)
            self.Wu = lmi.quad_form_rows(lift_batch(obs.X0, degree))
            self.Wv = lmi.quad_form_rows(lift_batch(obs.XL, degree))
            growth = np.linalg.norm(obs.XL, axis=1) ** (2 * degree)
        bad = np.flatnonzero(~(np.isfinite(self.Wu).all(axis=1) & np.isfinite(self.Wv).all(axis=1)
                               & np.isfinite(growth)))
        if bad.size:
            raise ValueError(f"row {bad[0]}: the degree-{degree} program overflows on this "
                             f"sample (lifted rows or ||xl||^{2 * degree} not finite)")
        self.dirs: list[np.ndarray] = []
        self.undecided = 0

    def rows(self, gamma: float) -> np.ndarray:
        factor = gamma ** (2 * self.degree * self.l)
        return self.Wv - factor * self.Wu


def solve_lambda(obs: ObservationSet) -> float:
    """Largest observed endpoint norm, the sampled growth-rate optimum."""
    if obs.N == 0:
        raise ValueError("at least one observation is required")
    _, XL = obs.endpoints()
    return float(np.max(np.linalg.norm(XL, axis=1)))


def _bisect_gamma(
    cache: _PairCache, opts: SolveOptions, witness: bool = True
) -> tuple[float, np.ndarray | None]:
    """gamma* and a witness P there, by bisection on the oracle's verdicts.

    A feasible step counts only once `lmi.feasibility_witness` has built its
    P.  With `witness=False`, for callers that keep only gamma*, the verdict
    alone counts, no witness is built and None comes back in its place.
    """
    D = cache.dim
    hi = cache.lambda_star ** (1.0 / cache.l)
    lo = 0.0
    best = np.eye(D) if witness else None  # feasible at hi: ||xl||^2d <= lambda*^2d
    start = None  # the P of the latest oracle result with one, where row generation starts
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        # At double resolution mid equals an end; solving it again moves nothing.
        if hi - lo <= opts.bisection_rel_tol * max(hi, 1e-12) or not lo < mid < hi:
            break
        feasible, P = False, None  # undecided or no witness: not proven feasible
        try:
            result = lmi.max_margin_feasibility(cache.rows(mid), D, opts.c_bound, cache.dirs, start)
            if result.P is not None:  # None when the oracle stopped early
                start = result.P
            if result.feasible and witness:
                P = lmi.feasibility_witness(result, D, cache.dirs)
            feasible = result.feasible and (P is not None or not witness)
        except SolverStallError as exc:
            cache.undecided += 1
            warnings.warn(f"feasibility oracle undecided at gamma={mid:.6g}: {exc}",
                          RuntimeWarning, stacklevel=2)
        if feasible:
            hi, best = mid, P
        else:
            lo = mid
    return hi, best


def _tie_break_cache(
    cache: _PairCache,
    gamma_star: float,
    witness: np.ndarray,
    opts: SolveOptions,
) -> LyapunovCandidate:
    gamma_tb = gamma_star * (1.0 + TIEBREAK_SLACK)
    P, gamma_cert, m = witness, gamma_star, matrix_metrics(witness)
    fallback = True
    try:
        # The slack factor (1 + TIEBREAK_SLACK)^(2dl) can pass the float range
        # at huge l, where the bisection's own factors (<= lambda*^(2d)) do not.
        with np.errstate(over="raise"):
            rows = cache.rows(gamma_tb)
        tied = lmi.min_lambda_max(rows, cache.dim, opts.c_bound,
                                  upper_hint=m.lambda_max * (1.0 + 1e-6), dirs=cache.dirs)
    except (OverflowError, FloatingPointError, SolverStallError):
        pass  # no slackened problem or a stalled solve: the bisection witness stays
    else:
        tied_m = matrix_metrics(tied)
        # The slackened problem should never be worse conditioned than the
        # bisection witness; the witness stays if it somehow is.
        if tied_m.kappa <= m.kappa + 1e-6:
            P, gamma_cert, m, fallback = tied, gamma_tb, tied_m, False
    return LyapunovCandidate(
        gamma=gamma_cert,
        P=SymMatrix.from_full(P),
        kappa=m.kappa,
        c_bound_binding=bool(m.lambda_max >= 0.9 * opts.c_bound),
        oracle_undecided=cache.undecided,
        tiebreak_fallback=fallback,
    )


def solve_gamma(
    obs: ObservationSet, d: int, opts: SolveOptions | None = None
) -> tuple[float, LyapunovCandidate]:
    """Minimal certified decrease rate gamma* of the sampled program.

    Bisects gamma over [0, lambda*^(1/l)] (the upper end is always feasible
    with P = I) until the bracket shrinks below bisection_rel_tol relative
    to the upper end, then applies the condition-number tie-break at the
    returned gamma.
    """
    opts = opts or SolveOptions()
    cache = _PairCache(obs, d)
    gamma_star, witness = _bisect_gamma(cache, opts)
    return gamma_star, _tie_break_cache(cache, gamma_star, witness, opts)
