"""Feasibility engine for the sampled Lyapunov programs.

Every program solved here has the same shape: find a symmetric P with
I <= P <= C*I satisfying a list of homogeneous linear inequalities
<G_i, P> <= 0.  The engine works in packed coordinates z = vech(P), the
layout that `lift` owns (`_triu`, `unpack_sym`), and solves a sequence of
linear programs over an outer approximation of the semidefinite
constraints, refining it with eigenvector cuts w^T P w >= r whenever the LP
solution leaves the cone.  Because the LP relaxation only ever
over-estimates the achievable margin, a relaxation margin below the
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
cut level w^T P w >= a*tau + b.  `max_margin_feasibility`, the oracle of
the gamma bisection and of the support search, maximizes the margin and
returns a verdict with the cleaned rows and the P it ended on.  From that
result alone `feasibility_witness` builds a shape matrix on request: above
the row-generation threshold the oracle's P itself, whose eigenvalue floor
D/C bounds the LP noise that rescaling amplifies; at or below it,
`_balanced_witness` maximizes the floor at the required margin in a second
cut loop, kept only for the sweep's byte references (ROADMAP item 3).
`min_lambda_max` is the condition-number tie-break.  The entry points
accept a mutable list of probe directions so the cuts learned in one call
warm-start the next: a cut w'Pw >= r depends only on D, not on gamma or rows.

The kernel also generates rows.  Only D(D+1)/2 + 1 samples can pin the
optimum of a sampled program, so above the threshold of _ROW_BLOCK base rows
an LP starts small and, after each solve, adds up to a `step` of
4*(D(D+1)/2 + 1) of the most violated rows left out.  A cold loop starts
from the `step` rows most violated at P = I (tau = 0).  An oracle call given
its previous result's `carry` starts from its tight rows (nonbasic in its
last LP: at most D(D+1)/2 + 1, and the trace row) at the new gamma, from
their HiGHS basis with no presolve, as gamma moves little between bisection
steps; it starts cold if a carried row or cut is gone (dropped, or not in
`dirs`), or HiGHS refuses the basis or fails.  Cuts are added the same way:
`dirs` is the pool, and a cold LP carries the seed directions, the last
`step` directions learned before the call, the cuts it learns itself and,
after each solve, up to `step` of the most violated pool cuts left out.
This is sound: every LP is a relaxation of the full one, so its optimum
bounds the full optimum (an early stop on a subset also holds for all rows
and cuts), and an iterate violating no row and no cut, with no eigenvalue
below the cut level, solves the full LP, wherever the rows were picked
from.  The bisection needs only the sign of each verdict, so above the
threshold the oracle also stops at the first round whose iterate P gives
a point of the whole program: P mixed with I, Q = (1 - t)P + tI, the least
t lifting its smallest eigenvalue to the cut level, keeps trace D and the
boxes and meets every cut, and once Q meets every row at margin
FEASIBILITY_MARGIN it is the feasible verdict's P, with Q's margin.  The
margin-optimal tail of Kelley's method, where the margin is long settled
and only the smallest eigenvalue creeps up to the floor, is not run.  An
infeasible verdict still comes from the relaxation bound alone.
Programs with at most _ROW_BLOCK base rows keep every row and
every cut, in `dirs` order, solve every LP cold and solve exactly the LPs
they did before generation existed; the threshold stays until the sweep's
references tolerate other LPs (ROADMAP item 3).  Row cleaning splits at the
same threshold (`_clean_rows`): above it a call only normalizes its rows, in
their given order, since `certifier._PairCache` merges a certificate's
samples once; at or below it each call still rounds, sorts and merges.

Every cold LP goes through `linprog`, a small adapter on the HiGHS binding
that scipy vendors (`scipy.optimize._highspy._core`).  It gives HiGHS the
model and options `scipy.optimize.linprog(method="highs")` would, and
`_run_highs`, the one place a model is solved, accepts a solution on the
same test, so every cold solution is bit-identical to linprog's; what the
adapter drops is linprog's per-call input and option validation, which cost
more than HiGHS itself on the small LPs here.  One HiGHS instance, made at
import with its options (_HIGHS_OPTIONS), solves every LP of the process,
one cut loop at a time under a re-entrant lock: each `linprog` call passes
it the model straight from arrays, passing a model clears the previous one,
and an LP that fails raises SolverStallError.  Above the threshold
`_cut_loop` keeps that model from round to round: after the first LP, each
round adds only the rows and cuts it turned on (`_add_rows`) and re-solves
from the previous basis, as in Kelley's cutting-plane method, so those
solutions agree with linprog's within the solver tolerances rather than bit
for bit; a round HiGHS refuses or fails is solved cold.  A carried first LP
is passed as linprog's would be (`_pass_lp`) and solved from its basis.
Like linprog, the adapter refuses an LP holding a NaN (HiGHS would call it
optimal), and it never solves a model HiGHS refuses.
`_core` and its array overload of `passModel` are private scipy API, so the
import fails loudly if either is missing, and a test checks the adapter
against linprog on recorded LPs.  `_core` is loaded straight from its file
(`_load_highs`): `scipy.optimize`'s package init imports scipy.linalg,
scipy.sparse and more, and would triple the package's import time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .lift import _triu, unpack_sym

__all__ = [
    "FEASIBILITY_MARGIN",
    "HIGHS_VERSION",
    "SolverStallError",
    "MarginResult",
    "quad_form_rows",
    "seed_cut_directions",
    "max_margin_feasibility",
    "feasibility_witness",
    "min_lambda_max",
]

# Margin demanded of the feasibility LP, measured on unit-norm constraint
# rows under the trace normalization.
FEASIBILITY_MARGIN = 1e-7
_EIG_TOL = 1e-9
_MAX_CUT_ROUNDS = 500
# Row-generation threshold.  Programs with at most this many base rows keep
# all of them and every cut in every LP; it exceeds the 209 base rows of the
# largest sweep cell (N=200 samples plus 9 magnitude rows at D=3).  Larger
# programs add rows and cuts in steps of 4*(D(D+1)/2 + 1), see `_cut_loop`.
_ROW_BLOCK = 256
# Tight enough that witnesses meet the 1e-8 constraint-slack contract and
# that each LP verdict resolves FEASIBILITY_MARGIN; HiGHS's defaults (1e-7)
# are the size of the margin itself.
_LP_TOLERANCES = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(folder: Path):
    """Load scipy's HiGHS binding from its file in `folder`, registered under
    its full name so that a later `import scipy.optimize` reuses it."""
    paths = (folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((path for path in paths if path.is_file()), None)
    try:
        if path is None:
            raise ImportError(f"no _core extension in {folder}")
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(f"jsrcert.lmi: cannot load the HiGHS binding of scipy "
                          f"{scipy.__version__} ({exc})") from exc
    sys.modules[_HIGHS_MODULE] = module
    return module


# Reuse the binding if the caller imported scipy.optimize first.
_highs = sys.modules.get(_HIGHS_MODULE) or _load_highs(
    Path(scipy.__file__).parent / "optimize" / "_highspy")


def _highs_options(tolerances: dict) -> _highs.HighsOptions:
    """The options `scipy.optimize.linprog(method="highs")` passes HiGHS."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    for key, value in tolerances.items():
        setattr(options, key, value)
    return options


_HIGHS_OPTIONS = _highs_options(_LP_TOLERANCES)
# The HiGHS build behind every solution; reports carry it.
HIGHS_VERSION = "{}.{}.{}".format(
    _highs.HIGHS_VERSION_MAJOR, _highs.HIGHS_VERSION_MINOR, _highs.HIGHS_VERSION_PATCH
)
_MS = _highs.HighsModelStatus
_BASIC = _highs.HighsBasisStatus.kBasic.value
# linprog's status codes by HiGHS model status; any other status maps to 4.
_LINPROG_STATUS = {_MS.kOptimal: 0, _MS.kTimeLimit: 1, _MS.kIterationLimit: 1,
                   _MS.kInfeasible: 2, _MS.kModelError: 2, _MS.kUnbounded: 3}
# Slack allowed on a solution HiGHS calls optimal, as in linprog.
_RESULT_TOL = 10 * np.sqrt(1e-9)
# The one HiGHS instance behind every LP of the process; a fresh instance
# logs to the console until it gets its options, here, once.  Each `linprog`
# call passes it a model, which clears the previous model, basis and
# solution; a cut loop above the threshold then adds rows to that model.  The
# lock keeps threads from interleaving LPs on it; a cut loop holds it from its
# first LP to its last, and its calls to `linprog` take it again.
_HIGHS = _highs._Highs()
_HIGHS.passOptions(_HIGHS_OPTIONS)
_HIGHS_LOCK = threading.RLock()


def _pass_model(c, col_lower, col_upper, row_lower, row_upper, starts, index, values):
    """Hand `_HIGHS` a column-wise LP to minimize, from contiguous arrays."""
    return _HIGHS.passModel(
        len(c), len(row_lower), len(values), int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, c, col_lower, col_upper, row_lower, row_upper,
        starts, index, values, np.zeros(len(c), np.int32))


def _check_array_model() -> None:
    """Fail at import if the binding no longer takes a model from arrays.

    That overload is private binding API, like `_core` itself.
    """
    one, zero = np.ones(1), np.zeros(1)
    try:
        status = _pass_model(one, zero, one, zero, one, np.array([0, 1], np.int32),
                             np.zeros(1, np.int32), one)
    except (TypeError, AttributeError) as exc:
        status = exc
    if status != _highs.HighsStatus.kOk:
        raise ImportError(f"jsrcert.lmi: the HiGHS binding of scipy {scipy.__version__} "
                          f"does not take an LP from arrays ({status})")


_check_array_model()


class SolverStallError(RuntimeError):
    """Iteration limit exhausted before the oracle could decide; distinct
    from infeasibility."""


@dataclass(frozen=True)
class MarginResult:
    feasible: bool
    margin: float
    # Not part of the verdict: the P (trace D) the oracle ended on, margin-optimal
    # or, above the row-generation threshold, its first interior point, the cleaned
    # rows and, above it, the tight rows the next call starts from (`carry`).
    P: np.ndarray | None = field(default=None, compare=False, repr=False)
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    carry: tuple | None = field(default=None, compare=False, repr=False)


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


def _clean_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize rows to unit norm and drop zero rows; at or below the
    threshold, also merge duplicates.

    Returns the rows and the input index of each.  Above the row-generation
    threshold (on the input row count) the rows keep their input order, with
    no rounding: a certificate's samples are merged once, in
    `certifier._PairCache`, so no step sorts.  At or below it duplicates are
    detected after rounding to 12 decimals, which perturbs a unit-norm
    constraint by far less than the feasibility margin but removes the heavy
    degeneracy of dense grids (antipodal points give identical rows); rows
    come back in lexicographic order, the first of each equal group kept.  A
    finite row whose squares overflow gets its norm scaled by its largest
    entry; a row whose norm is still not finite (a NaN or an inf entry, or a
    norm past the float range) raises ValueError.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    merge = not _generates_rows(*rows.shape)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        big = np.flatnonzero(np.isinf(norms))
        big = big[np.isfinite(rows[big]).all(axis=1)]
        if big.size:
            top = np.abs(rows[big]).max(axis=1)
            norms[big] = top * np.linalg.norm(rows[big] / top[:, None], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:  # a NaN row would fail `keep` and drop out unseen
        raise ValueError(f"constraint row {bad[0]}: its norm is not finite")
    keep = norms > 1e-300
    index = np.flatnonzero(keep)
    if not keep.all():  # no gather when no row is zero: the same divisions
        rows, norms = rows[keep], norms[keep]
    rows = rows / norms[:, None]
    if merge and rows.shape[0] > 1:
        rows = np.round(rows, 12)
        order = np.lexsort(rows.T[::-1])
        rows, index = rows[order], index[order]
        first = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
        rows, index = rows[first], index[first]
    return rows, index


class LPResult(NamedTuple):
    status: int  # linprog's codes: 0 solved, 1 limit, 2 infeasible, 3 unbounded, 4 other
    x: np.ndarray | None
    message: str


def linprog(c, *, A_ub, b_ub, bounds, A_eq=None, b_eq=None) -> LPResult:
    """min c'x s.t. A_ub x <= b_ub, A_eq x = b_eq and column `bounds`, by HiGHS.

    HiGHS gets the model `scipy.optimize.linprog(method="highs")` would give
    it, bit for bit (`_pass_lp`), and `_run_highs` accepts a solution on
    linprog's terms: model status optimal, and bounds, slacks and equality
    residuals within _RESULT_TOL.  Raises ValueError, without solving, for an
    LP with a NaN or mismatched shapes, or one HiGHS refuses.
    """
    with _HIGHS_LOCK:
        return _run_highs(*_pass_lp(c, A_ub, b_ub, bounds, A_eq, b_eq))


def _pass_lp(c, A_ub, b_ub, bounds, A_eq=None, b_eq=None):
    """Pass `_HIGHS` `linprog`'s LP, clearing its basis.  The caller holds _HIGHS_LOCK."""
    m = len(b_ub)
    A, lower, upper = A_ub, np.full(m, -_highs.kHighsInf), np.asarray(b_ub, dtype=float)
    if A_eq is not None:
        b_eq = np.asarray(b_eq, dtype=float)
        A = np.vstack([A_ub, A_eq])
        lower, upper = np.concatenate([lower, b_eq]), np.concatenate([upper, b_eq])
    c = np.asarray(c, dtype=float)
    col_bounds = np.array(bounds, dtype=float)
    num_row, num_col = A.shape
    if c.shape != (num_col,) or col_bounds.shape != (num_col, 2) or upper.shape != (num_row,):
        raise ValueError(f"LP shapes disagree: c {c.shape}, A {A.shape}, "
                         f"b {upper.shape}, bounds {col_bounds.shape}")
    cols, rows = np.nonzero(A.T)  # column-major nonzeros, as in a CSC matrix
    values = A[rows, cols]
    for name, value in (("c", c), ("A_ub/A_eq", values), ("b_ub/b_eq", upper),
                        ("bounds", col_bounds)):
        if np.isnan(value).any():
            raise ValueError(f"LP {name} holds a NaN")
    col_lower, col_upper = np.ascontiguousarray(col_bounds.T)
    starts = np.searchsorted(cols, np.arange(num_col + 1)).astype(np.int32)
    if _pass_model(c, col_lower, col_upper, lower, upper, starts, rows.astype(np.int32),
                   values) == _highs.HighsStatus.kError:
        raise ValueError("HiGHS refused the LP model")
    return col_lower, col_upper, lower, upper


def _run_highs(col_lower, col_upper, row_lower, row_upper) -> LPResult:
    """Solve the model `_HIGHS` holds, whose column and row bounds are given.

    The one place a model is solved, from `linprog`, a cut loop's added
    rows or its carried first LP.  A solution counts as solved on linprog's
    terms: model status optimal, and every column and row within its bounds
    up to _RESULT_TOL.  The caller holds _HIGHS_LOCK.
    """
    _HIGHS.run()
    model_status = _HIGHS.getModelStatus()
    message = f"HiGHS model status {_HIGHS.modelStatusToString(model_status)}"
    if model_status != _MS.kOptimal:
        return LPResult(_LINPROG_STATUS.get(model_status, 4), None, message)
    solution = _HIGHS.getSolution()  # a copy
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    if (np.all(x >= col_lower - _RESULT_TOL) and np.all(x <= col_upper + _RESULT_TOL)
            and np.all(row_upper - row >= -_RESULT_TOL)
            and np.all(row - row_lower >= -_RESULT_TOL)):
        return LPResult(0, x, message)
    return LPResult(4, x, f"{message}, but a constraint is missed by more than {_RESULT_TOL:.2e}")


def _add_rows(A, rhs) -> bool:
    """Append the rows A x <= rhs to the model `_HIGHS` holds; False if HiGHS
    refuses them.  The caller holds _HIGHS_LOCK."""
    rows, cols = np.nonzero(A)  # row-major nonzeros
    starts = np.searchsorted(rows, np.arange(len(rhs))).astype(np.int32)
    return _HIGHS.addRows(len(rhs), np.full(len(rhs), -_highs.kHighsInf), rhs, len(rows), starts,
                          cols.astype(np.int32), A[rows, cols]) != _highs.HighsStatus.kError


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


def _cut_rows(V: np.ndarray, a: float) -> np.ndarray:
    """Rows -w'Pw + a*tau <= -b of the cuts w'Pw >= a*tau + b, w the rows of V."""
    q = quad_form_rows(V)
    return np.hstack([-q, np.full((q.shape[0], 1), a)])


def _turn_on(active: np.ndarray, residual: np.ndarray, step: int) -> np.ndarray:
    """Turn on up to `step` of the rows off in `active` that `residual` finds
    violated, most violated first; the rows turned on, in row order, which
    are none only if no row off is violated."""
    violated = np.flatnonzero(~active & (residual > _EIG_TOL))
    if violated.size > step:
        violated = np.sort(violated[np.argsort(-residual[violated], kind="stable")[:step]])
    active[violated] = True
    return violated


def _generates_rows(n_rows: int, K: int) -> bool:
    """Whether `n_rows` base rows on K = D(D+1)/2 unknowns lie above the threshold."""
    return n_rows > max(_ROW_BLOCK, 4 * (K + 1))


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
    interior=None,
    carry: list | None = None,
):
    """Optimize tau over x = (vech P, tau) under eigenvector cuts.

    Minimizes sense*tau subject to the `base` rows and, for every probe
    direction w in `dirs`, the cut w'Pw >= a*tau + b.  When the LP solution
    has eigenvalues below that level, their eigenvectors join `dirs` (which
    the caller may keep across calls) and the LP is solved again.  With
    `ceiling`, a top eigenvector above tau adds the cut w'Pw <= tau.
    Returns (tau, P, eigvals) once no row and no cut is violated, or (tau,
    None, None) as soon as `stop(tau)` holds.  Beyond _ROW_BLOCK base rows
    (see the module docstring), each LP carries only the rows and cuts
    turned on so far, up to `step` more of each per round, and stays in
    `_HIGHS` from round to round; `interior(P, eigvals)` may end a round
    early with a point (tau, P, None) of the full program built from its
    iterate; a `carry` list [base positions, `dirs` indices, HiGHS basis]
    gives the first LP unless HiGHS refuses or fails it, and on return holds
    the last LP's nonbasic and equality rows; else the first rows are the
    `step` most violated at (vech I, tau = 0).
    """
    if not dirs:
        dirs.extend(seed_cut_directions(D))
    K = D * (D + 1) // 2
    step = 4 * (K + 1)  # four times the most samples that can pin the optimum
    n = base.shape[0]
    c = np.zeros(K + 1)
    c[-1] = sense
    active = np.ones(n, dtype=bool)
    cuts = _cut_rows(np.array(dirs), a)  # the pool's rows, extended as cuts are learned
    on = np.ones(len(dirs), dtype=bool)
    hi_dirs: list[np.ndarray] = []

    def lp_rows(act, pool, hi, n_eq=0):  # row ids: base position, n + pool index, -1, -2 (eq)
        parts = [base[act], cuts[pool]]
        parts_rhs = [base_rhs[act], np.zeros(len(parts[1])) - b]  # 0 - b: +0.0 when b = 0
        if hi:  # w'Pw <= tau
            parts.append(-_cut_rows(np.array(hi), 1.0))
            parts_rhs.append(np.zeros(len(hi)))
        ids = np.concatenate([act, n + pool, np.full(len(hi), -1), np.full(n_eq, -2)])
        return np.vstack(parts), np.concatenate(parts_rhs), ids

    # At or below the threshold every LP is solved cold, so that the sweep's
    # LPs stay bit-identical to its byte references; with those references
    # gone (ROADMAP item 3) every loop can keep its LP in `_HIGHS`.
    warm = _generates_rows(n, K)
    col_lower, col_upper = np.array(bounds, dtype=float).T
    eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    no_rows = np.zeros(0, dtype=np.intp)

    def done(out):
        if carry is not None and warm:  # the tight rows, by id, then the equality rows
            basis = _HIGHS.getBasis()
            status = basis.row_status
            tight = np.flatnonzero((ids >= 0) & [s.value != _BASIC for s in status])
            tight = tight[np.argsort(ids[tight])]
            basis.row_status = [status[k] for k in np.append(tight, np.flatnonzero(ids == -2))]
            carry[:] = [ids[tight][ids[tight] < n], ids[tight][ids[tight] >= n] - n, basis]
        return out

    res = None  # of the last warm round; None or a failure solves the next round cold
    with _HIGHS_LOCK:
        if warm and carry:
            pos, pool, basis = carry
            A, rhs, ids = lp_rows(pos, pool, [], len(eq))
            _, _, row_lower, row_upper = _pass_lp(c, A, rhs, bounds, A_eq, b_eq)
            if _HIGHS.setBasis(basis) != _highs.HighsStatus.kError:
                res = _run_highs(col_lower, col_upper, row_lower, row_upper)
                if res.status == 0:
                    active, on = np.zeros(n, dtype=bool), np.zeros(len(on), dtype=bool)
                    active[pos], on[pool] = True, True
        if warm and (res is None or res.status != 0):
            x0 = np.append(np.eye(D)[_triu(D)], 0.0)
            slack = base_rhs - base @ x0  # the `step` rows most violated at x0, ties in row order
            cut = np.partition(slack, step - 1)[step - 1]
            active = slack < cut
            active[np.flatnonzero(slack == cut)[: step - np.count_nonzero(active)]] = True
            on[D * D : max(D * D, len(dirs) - step)] = False  # keep the seeds and last `step` cuts
        for _ in range(_MAX_CUT_ROUNDS):
            if res is None or res.status != 0:  # solve cold
                A, rhs, ids = lp_rows(np.flatnonzero(active), np.flatnonzero(on), hi_dirs, len(eq))
                res = linprog(c, A_ub=A, b_ub=rhs, bounds=bounds, A_eq=A_eq, b_eq=b_eq)
                if res.status != 0:
                    raise SolverStallError(f"LP solve failed (status {res.status}): {res.message}")
                row_lower = np.concatenate([np.full(len(rhs), -_highs.kHighsInf), eq])
                row_upper = np.concatenate([rhs, eq])
            x = res.x
            tau = float(x[-1])
            if stop is not None and stop(tau):
                return done((tau, None, None))
            rows_on = no_rows if active.all() else _turn_on(active, base @ x - base_rhs, step)
            cuts_on = no_rows if on.all() else _turn_on(on, cuts @ x + b, step)
            P = unpack_sym(x[:K], D)
            eigvals, eigvecs = np.linalg.eigh(P)
            level = a * tau + b - _EIG_TOL * max(1.0, b)
            new_dirs = [eigvecs[:, k] for k in range(D) if eigvals[k] < level]
            if new_dirs:  # new cuts are always on, last in pool order
                cuts_on = np.append(cuts_on, np.arange(len(dirs), len(dirs) + len(new_dirs)))
                dirs.extend(new_dirs)
                cuts = np.vstack([cuts, _cut_rows(np.array(new_dirs), a)])
                on = np.append(on, np.ones(len(new_dirs), dtype=bool))
            hi = []
            if ceiling and eigvals[-1] > tau + _EIG_TOL * max(1.0, tau):
                hi = [eigvecs[:, -1]]
                hi_dirs += hi
            elif not rows_on.size and not cuts_on.size:
                return done((tau, P, eigvals))
            res = None
            if warm:  # add the rows turned on to the model and re-solve from its basis
                found = interior and interior(P, eigvals)
                if found:
                    return done(found)
                A, rhs, added = lp_rows(rows_on, cuts_on, hi)
                if _add_rows(A, rhs):
                    row_lower = np.append(row_lower, np.full(len(rhs), -_highs.kHighsInf))
                    row_upper = np.append(row_upper, rhs)
                    ids = np.append(ids, added)
                    res = _run_highs(col_lower, col_upper, row_lower, row_upper)
    raise SolverStallError("eigenvector-cut iteration limit reached")


def _balanced_witness(
    rows: np.ndarray, D: int, margin: float, dirs: list[np.ndarray]
) -> np.ndarray:
    """Maximize the eigenvalue floor of P subject to margins >= `margin`.

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
    carry: tuple | None = None,
) -> MarginResult:
    """Decide whether some P with I <= P <= c_bound*I satisfies all rows.

    `rows` hold the packed coefficients of <G_i, P> <= 0.  Feasible when the
    trace-normalized relaxation (eigenvalue floor D/c_bound) reaches
    FEASIBILITY_MARGIN, at the optimum or, above the row-generation
    threshold, at the first interior point found on the way (see the module
    docstring); a verdict only (see `feasibility_witness`).  `dirs`
    accumulates semidefiniteness probe directions across calls.  `carry`,
    the `carry` of an earlier result on rows of the same samples and `dirs`,
    gives row generation its first LP (see the module docstring); at or
    below the threshold it is not used.
    """
    rows, index = _clean_rows(rows)
    if rows.shape[0] == 0:
        return MarginResult(feasible=True, margin=1.0, rows=rows)
    carry = [] if carry is None else list(carry)
    if carry:  # input rows to positions here
        where = np.full(max(index.max(), carry[0].max(initial=0)) + 1, -1)
        where[index] = np.arange(len(index))
        carry[0] = where[carry[0]]
        if (carry[0] < 0).any() or carry[1].max(initial=-1) >= len(dirs or []):
            carry = []  # a carried row merged or dropped here, or a cut not in `dirs`
    # lambda_max <= trace = D, so this floor caps lambda_max/lambda_min at
    # c_bound, matching the I <= P <= C*I box after rescaling.
    floor = min(D / c_bound, 0.9)
    # Margins are at most ||P||_F <= D.
    bounds, trace_row = _trace_box(D, (-2.0 * D, 2.0 * D))
    base = np.hstack([rows, np.ones((rows.shape[0], 1))])

    def interior(P, eigvals):
        # P mixed with I until its smallest eigenvalue reaches the cut level
        # `floor` meets every cut and keeps trace D and the boxes: a point of
        # the whole program, which decides feasible once its margin on every
        # row reaches FEASIBILITY_MARGIN.
        lmin = eigvals[0]
        theta = (floor - lmin) / (1.0 - lmin) if lmin < floor else 0.0  # lmin < floor < 1
        Q = (1.0 - theta) * P + theta * np.eye(D)
        margin = -float(np.max(rows @ Q[_triu(D)]))
        return (margin, Q, None) if margin >= FEASIBILITY_MARGIN else None

    t, P, _ = _cut_loop(-1.0, bounds, base, np.zeros(base.shape[0]), [] if dirs is None else dirs,
                        0.0, floor, D, A_eq=trace_row, b_eq=[float(D)],
                        stop=lambda tau: tau < -FEASIBILITY_MARGIN, interior=interior, carry=carry)
    return MarginResult(P is not None and t >= FEASIBILITY_MARGIN, t, P, rows,
                        (index[carry[0]], *carry[1:]) if carry else None)


def feasibility_witness(result: MarginResult, D: int, dirs: list[np.ndarray]) -> np.ndarray | None:
    """P >= I on the rows of a feasible `max_margin_feasibility` `result`.

    Checked again on every row; None when rescaling amplified LP noise past
    the 1e-9 contract.
    """
    rows = result.rows
    if rows.shape[0] == 0:
        return np.eye(D)
    P = result.P
    if not _generates_rows(rows.shape[0], D * (D + 1) // 2):
        # Balanced by a second cut loop only so that the sweep's LPs stay
        # bit-identical to its byte references; with those references gone
        # (ROADMAP item 3) every witness can be the oracle's own P.
        P = _balanced_witness(rows, D, min(result.margin, max(FEASIBILITY_MARGIN, 1e-6)), dirs)
    lmin = float(np.linalg.eigvalsh(P)[0])
    if lmin <= 0:
        return None
    P = P / lmin  # homogeneous constraints: rescale so P >= I exactly
    return P if float(np.max(rows @ P[_triu(D)])) <= 1e-9 else None


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
    rows, _ = _clean_rows(rows)
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
