"""Feasibility engine for the sampled Lyapunov programs.

Every program solved here has the same shape: find a symmetric P with
I <= P <= C*I satisfying a list of homogeneous linear inequalities
<G_i, P> <= 0.  The engine works in packed coordinates z = vech(P) and
solves a sequence of linear programs over an outer approximation of the
semidefinite constraints, refining it with eigenvector cuts w^T P w >= r
whenever the LP solution leaves the cone.  Because the LP relaxation only
ever over-estimates the achievable margin, a relaxation margin below the
infeasibility threshold certifies that the true program is infeasible.

The inequality constraints are homogeneous in P, so the search is run under
the normalization trace(P) = D with the norm cap C mapped to the eigenvalue
floor D/C (lambda_max never exceeds the trace, so the floor caps the
condition number at the same sqrt(C) as the original box).  That keeps every
LP variable in [-D, D] regardless of C, and the accepted iterate is rescaled
afterwards so P >= I holds exactly.  Margins are measured in this
normalization, on unit-norm constraint rows, and a program counts as feasible
only at margin FEASIBILITY_MARGIN, which sits well above the LP feasibility
tolerance (1e-9) because rescaling divides residual noise by the eigenvalue
floor.

All three programs run through one cutting-plane loop, `_cut_loop`, over
x = (vech P, tau); they differ only in objective, boxes, base rows and the
cut level w^T P w >= a*tau + b.  Feasibility is decided in two phases: the
margin-maximizing program (`max_margin_feasibility`, the yes/no oracle of
the gamma bisection) answers yes/no, and `_balanced_witness` re-balances an
accepted witness by maximizing its eigenvalue floor at the required margin
(the margin-maximal vertex is typically near-singular, which would amplify
LP noise when rescaled).  `min_lambda_max` is the condition-number
tie-break.  The entry points accept a mutable list of probe directions so
the semidefiniteness cuts learned in one call can warm-start the next: a cut
w'Pw >= r depends only on the lift dimension D, not on gamma or on the rows.

The kernel also generates rows.  Only D(D+1)/2 + 1 samples can pin the
optimum of a sampled program, so with more than _ROW_BLOCK base rows the LPs
start from the _ROW_BLOCK rows most violated at P = I (tau = 0) and, after
each solve, add up to _ROW_BLOCK of the most violated rows still left out.
This is sound: every LP is a relaxation of the full one, so its optimum
bounds the full optimum (an early stop on a subset also holds for all rows),
and an iterate violating no row solves the full LP.  Programs with at most
_ROW_BLOCK base rows keep every row from the start and solve exactly the
LPs they did before generation existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "FEASIBILITY_MARGIN",
    "SolverStallError",
    "MarginResult",
    "quad_form_rows",
    "unpack_sym",
    "seed_cut_directions",
    "max_margin_feasibility",
    "min_lambda_max",
]

# Margin demanded of the feasibility LP, measured on unit-norm constraint
# rows under the trace normalization.
FEASIBILITY_MARGIN = 1e-7
_EIG_TOL = 1e-9
_MAX_CUT_ROUNDS = 500
# Base rows per generation step.  Programs with at most this many base rows
# keep all of them in every LP; it exceeds the 209 base rows of the largest
# sweep cell (N=200 samples plus 9 magnitude rows at D=3).
_ROW_BLOCK = 256
# Tight tolerances first so witnesses meet the 1e-8 constraint-slack
# contract; retried with HiGHS defaults on numerically degenerate systems.
_LP_OPTION_LADDER = (
    {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    {},
)


class SolverStallError(RuntimeError):
    """Iteration limit exhausted before the oracle could decide; distinct
    from infeasibility."""


@dataclass(frozen=True)
class MarginResult:
    feasible: bool
    P: np.ndarray | None
    margin: float


@lru_cache(maxsize=64)
def _triu(D: int):
    iu, ju = np.triu_indices(D)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def quad_form_rows(V: np.ndarray) -> np.ndarray:
    """Rows r with r . vech(P) = v^T P v for each row v of V.

    Off-diagonal vech entries carry a factor 2 so plain dot products give
    the quadratic form.
    """
    V = np.atleast_2d(V)
    D = V.shape[1]
    iu, ju = _triu(D)
    rows = V[:, iu] * V[:, ju]
    rows[:, iu != ju] *= 2.0
    return rows


def unpack_sym(z: np.ndarray, D: int) -> np.ndarray:
    P = np.zeros((D, D))
    iu = _triu(D)
    P[iu] = z
    P.T[iu] = z
    return P


def seed_cut_directions(D: int) -> list[np.ndarray]:
    """Initial probe directions: coordinate axes and pairwise diagonals."""
    dirs = [np.eye(D)[i] for i in range(D)]
    for i in range(D):
        for j in range(i + 1, D):
            w = np.zeros(D)
            w[i] = w[j] = np.sqrt(0.5)
            dirs.append(w.copy())
            w[j] = -np.sqrt(0.5)
            dirs.append(w)
    return dirs


def _clean_rows(rows: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm, drop zero rows, merge duplicates.

    Duplicates are detected after rounding to 12 decimals, which perturbs a
    unit-norm constraint by far less than the feasibility margin but removes
    the heavy degeneracy of dense grids (antipodal points give identical
    rows).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-300
    rows = rows[keep] / norms[keep, None]
    if rows.shape[0] > 1:
        rows = np.unique(np.round(rows, 12), axis=0)
    return rows


def _solve_lp(c, A_ub, b_ub, bounds, A_eq=None, b_eq=None):
    res = None
    for options in _LP_OPTION_LADDER:
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=bounds, method="highs", options=options,
        )
        if res.status == 0:
            return res.x
    raise SolverStallError(f"LP solve failed (status {res.status}): {res.message}")


def _trace_box(D: int, tau_box: tuple[float, float]):
    """Variable boxes and trace row for P >= 0 with trace(P) = D, plus tau.

    Valid boxes for PSD P with trace D: diagonal in [0, D], off-diagonal
    magnitude at most D/2.
    """
    iu, ju = _triu(D)
    diag_mask = iu == ju
    bounds = [(0.0, float(D)) if d else (-D / 2.0, D / 2.0) for d in diag_mask]
    bounds.append(tau_box)
    trace_row = np.zeros((1, len(bounds)))
    trace_row[0, :-1][diag_mask] = 1.0
    return bounds, trace_row


def _cut_loop(
    sense: float,
    bounds: list,
    base: np.ndarray,
    base_rhs: np.ndarray,
    dirs: list[np.ndarray],
    a: float,
    b: float,
    D: int,
    A_eq=None,
    b_eq=None,
    ceiling: bool = False,
    stop=None,
):
    """Optimize tau over x = (vech P, tau) under eigenvector cuts.

    Minimizes sense*tau subject to the `base` rows and, for every probe
    direction w in `dirs`, the cut w'Pw >= a*tau + b.  When the LP solution
    has eigenvalues below that level, their eigenvectors join `dirs` (which
    the caller may keep across calls) and the LP is solved again.  With
    `ceiling`, a top eigenvector above tau adds the cut w'Pw <= tau.
    Beyond _ROW_BLOCK base rows, each LP carries only the rows generated so
    far (see the module docstring).  Returns (tau, P, eigvals) once no row
    and no cut is violated, or (tau, None, None) as soon as `stop(tau)`
    holds.
    """
    if not dirs:
        dirs.extend(seed_cut_directions(D))
    K = D * (D + 1) // 2
    c = np.zeros(K + 1)
    c[-1] = sense
    active = np.ones(base.shape[0], dtype=bool)
    if base.shape[0] > _ROW_BLOCK:
        iu, ju = _triu(D)
        x0 = np.zeros(K + 1)
        x0[:K][iu == ju] = 1.0
        active[:] = False
        active[_most_violated(base @ x0 - base_rhs)] = True
    hi_dirs: list[np.ndarray] = []
    for _ in range(_MAX_CUT_ROUNDS):
        q = quad_form_rows(np.array(dirs))
        parts = [base[active], np.hstack([-q, np.full((q.shape[0], 1), a)])]
        parts_rhs = [base_rhs[active], np.zeros(q.shape[0]) - b]  # 0 - b: +0.0 when b = 0
        if hi_dirs:
            q = quad_form_rows(np.array(hi_dirs))
            parts.append(np.hstack([q, -np.ones((q.shape[0], 1))]))
            parts_rhs.append(np.zeros(q.shape[0]))
        x = _solve_lp(c, np.vstack(parts), np.concatenate(parts_rhs), bounds, A_eq=A_eq, b_eq=b_eq)
        tau = float(x[-1])
        if stop is not None and stop(tau):
            return tau, None, None
        added = False
        if not active.all():
            residual = base @ x - base_rhs
            violated = np.flatnonzero(~active & (residual > _EIG_TOL))
            added = violated.size > 0
            active[violated[_most_violated(residual[violated])]] = True
        P = unpack_sym(x[:K], D)
        eigvals, eigvecs = np.linalg.eigh(P)
        level = a * tau + b - _EIG_TOL * max(1.0, b)
        new_dirs = [eigvecs[:, k] for k in range(D) if eigvals[k] < level]
        dirs.extend(new_dirs)
        if ceiling and eigvals[-1] > tau + _EIG_TOL * max(1.0, tau):
            hi_dirs.append(eigvecs[:, -1])
        elif not new_dirs and not added:
            return tau, P, eigvals
    raise SolverStallError("eigenvector-cut iteration limit reached")


def _most_violated(residual: np.ndarray) -> np.ndarray:
    """Indices of the _ROW_BLOCK largest residuals, ties in row order."""
    return np.argsort(-residual, kind="stable")[:_ROW_BLOCK]


def _balanced_witness(
    rows: np.ndarray, D: int, margin: float, dirs: list[np.ndarray]
) -> np.ndarray:
    """Maximize the eigenvalue floor of P subject to margins >= `margin`.

    Run after feasibility is established: trading surplus margin for
    conditioning keeps the rescaled witness numerically meaningful.
    Variables are vech(P) (trace-normalized) plus the floor s.
    """
    # lambda_min is at most the mean eigenvalue 1
    bounds, trace_row = _trace_box(D, (0.0, 1.0))
    base = np.hstack([rows, np.zeros((rows.shape[0], 1))])
    base_rhs = np.full(rows.shape[0], -margin)
    _, P, _ = _cut_loop(-1.0, bounds, base, base_rhs, dirs, 1.0, 0.0, D,
                        A_eq=trace_row, b_eq=[float(D)])
    return P


def max_margin_feasibility(
    rows: np.ndarray,
    D: int,
    c_bound: float,
    dirs: list[np.ndarray] | None = None,
) -> MarginResult:
    """Decide whether some P with I <= P <= c_bound*I satisfies all rows.

    `rows` hold the packed coefficients of <G_i, P> <= 0.  Returns a witness
    scaled so P >= I holds exactly, or infeasible when the trace-normalized
    relaxation (eigenvalue floor D/c_bound) cannot reach FEASIBILITY_MARGIN.
    `dirs` accumulates semidefiniteness probe directions across calls.
    """
    dirs = [] if dirs is None else dirs  # shared with the balancing pass below
    rows = _clean_rows(rows)
    if rows.shape[0] == 0:
        return MarginResult(feasible=True, P=np.eye(D), margin=1.0)
    # lambda_max <= trace = D, so this floor caps lambda_max/lambda_min at
    # c_bound, matching the I <= P <= C*I box after rescaling.
    floor = min(D / c_bound, 0.9)
    # Margins are at most ||P||_F <= D.
    bounds, trace_row = _trace_box(D, (-2.0 * D, 2.0 * D))
    base = np.hstack([rows, np.ones((rows.shape[0], 1))])
    t, P, _ = _cut_loop(-1.0, bounds, base, np.zeros(base.shape[0]), dirs, 0.0, floor, D,
                        A_eq=trace_row, b_eq=[float(D)],
                        stop=lambda tau: tau < -FEASIBILITY_MARGIN)
    if P is None or t < FEASIBILITY_MARGIN:
        return MarginResult(feasible=False, P=None, margin=t)
    P = _balanced_witness(rows, D, min(t, max(FEASIBILITY_MARGIN, 1e-6)), dirs)
    lmin = float(np.linalg.eigvalsh(P)[0])
    if lmin <= 0:
        return MarginResult(feasible=False, P=None, margin=t)
    P = P / lmin  # homogeneous constraints: rescale so P >= I exactly
    if float(np.max(rows @ P[_triu(D)])) > 1e-9:
        # Rescaling amplified LP noise past the contract; boundary case.
        return MarginResult(feasible=False, P=None, margin=t)
    return MarginResult(feasible=True, P=P, margin=t)


def min_lambda_max(
    rows: np.ndarray,
    D: int,
    c_bound: float,
    upper_hint: float | None = None,
    dirs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Minimize lambda_max(P) over P >= I satisfying all rows.

    The scale of P is pinned by the lower eigenvalue bound, so minimizing
    the top eigenvalue minimizes the condition number.  `upper_hint` is a
    known-achievable ceiling (for instance from a feasibility witness); it
    tightens the variable boxes without affecting the optimum.  Returns the
    full symmetric minimizer, rescaled so P >= I holds exactly.
    """
    rows = _clean_rows(rows)
    dirs = [] if dirs is None else dirs
    K = D * (D + 1) // 2
    iu, ju = _triu(D)
    diag_mask = iu == ju
    top = float(min(c_bound, upper_hint)) if upper_hint is not None else float(c_bound)
    top = max(top, 1.0 + 1e-9)
    bounds = [(1.0, top) if d else (-top, top) for d in diag_mask]
    bounds.append((1.0, top))

    # Ceiling rows valid for any PSD P: diagonal entries and off-diagonal
    # magnitudes never exceed lambda_max.
    mag = []
    for k, (i, j) in enumerate(zip(iu, ju)):
        row = np.zeros(K + 1)
        row[k] = 1.0
        row[-1] = -1.0
        mag.append(row.copy())
        if i != j:
            row[k] = -1.0
            mag.append(row)
    base = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), mag])

    _, P, eigvals = _cut_loop(1.0, bounds, base, np.zeros(base.shape[0]), dirs, 0.0, 1.0, D,
                              ceiling=True)
    if eigvals[0] < 1.0:
        P = P / float(eigvals[0])
    return P
