"""White-box ground-truth computations for validation and experiments.

Everything here assumes full knowledge of the mode matrices and exists to
check the black-box certifier from the outside: mode products,
spectral-radius lower bounds on the joint spectral radius, a dense-grid
version of the decrease-rate program, and greedy extraction of an
irreducible support set (at most D(D+1)/2 + 1 observations, by Helly's
theorem).  The decrease rates here come from the certifier's bisection
alone: they need gamma*, not a tie-broken shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .certifier import SolveOptions, _bisect_gamma, _PairCache
from .lmi import SolverStallError, max_margin_feasibility
from .sampling import ModeSet, ObservationSet

__all__ = [
    "ProductEnumeration",
    "WhiteboxResult",
    "SupportResult",
    "enumerate_products",
    "jsr_lower_bound",
    "whitebox_gamma",
    "support_constraints",
]

_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ProductEnumeration:
    """All ordered length-l mode products, lexicographic in the sequence."""

    sequences: tuple[tuple[int, ...], ...]
    matrices: tuple[np.ndarray, ...]


def _product_levels(modes: ModeSet, k_max: int):
    """Per k = 1..k_max, the products A_{j_k} @ (...) @ A_{j_1}, lexicographic in (j_1, ..., j_k)."""
    level = [np.eye(modes.n)]
    for _ in range(k_max):
        level = [A @ p for p in level for A in modes.matrices]
        yield level


def enumerate_products(modes: ModeSet, l: int) -> ProductEnumeration:
    if l < 1:
        raise ValueError(f"product length must be >= 1, got {l}")
    if modes.m**l > _ENUMERATION_CAP:
        raise ValueError(f"m^l = {modes.m}^{l} exceeds the enumeration cap {_ENUMERATION_CAP}")
    for matrices in _product_levels(modes, l):  # the last list, of length-l products
        pass
    sequences = tuple(itertools.product(range(modes.m), repeat=l))
    return ProductEnumeration(sequences=sequences, matrices=tuple(matrices))


def jsr_lower_bound(modes: ModeSet, k_max: int) -> float:
    """max over k <= k_max of (spectral radius of a length-k product)^(1/k).

    Always a valid lower bound on the joint spectral radius.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if modes.m**k_max > _ENUMERATION_CAP:
        raise ValueError(f"m^k_max exceeds the enumeration cap {_ENUMERATION_CAP}")
    best = 0.0
    for k, level in enumerate(_product_levels(modes, k_max), 1):
        rho_k = max(float(np.abs(np.linalg.eigvals(p)).max()) for p in level)
        best = max(best, rho_k ** (1.0 / k))
    return best


@dataclass(frozen=True)
class WhiteboxResult:
    gamma: float
    surrogate: bool


def _sphere_grid(n: int, count: int) -> np.ndarray:
    if n == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.Generator(np.random.Philox(key=0))
    G = rng.standard_normal((count, n))
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def whitebox_gamma(
    modes: ModeSet,
    l: int,
    d: int,
    grid: int = 720,
    opts: SolveOptions | None = None,
) -> WhiteboxResult:
    """Decrease-rate optimum with the full product set on a dense sphere grid.

    For n = 2 the grid is `grid` equally spaced angles on the circle; for
    n >= 3 there is no canonical grid, so `grid` quasi-uniform samples are
    used instead and the result is flagged as a surrogate.  Constraints at
    all (grid point, product) pairs are solved by the same bisection
    machinery as the sampled problem, so the value approaches the true
    optimum from below as the grid refines.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    opts = opts or SolveOptions()
    X = _sphere_grid(modes.n, grid)
    products = enumerate_products(modes, l)
    X0 = np.vstack([X] * len(products.matrices))
    XL = np.vstack([X @ A.T for A in products.matrices])
    obs = ObservationSet(l, X0, XL)
    gamma, _ = _bisect_gamma(_PairCache(obs, d), opts, witness=False)
    return WhiteboxResult(gamma=gamma, surrogate=modes.n != 2)


@dataclass(frozen=True)
class SupportResult:
    """`undecided` counts the subset checks whose oracle stalled; each kept its member."""

    indices: tuple[int, ...]
    gamma: float
    undecided: int = 0


def support_constraints(
    obs: ObservationSet,
    d: int,
    opts: SolveOptions | None = None,
) -> SupportResult:
    """Irreducible subset of observations that reproduces the sampled optimum.

    Greedy constraint dropping: observation i leaves the subset when the
    remaining ones are still infeasible at gamma*(all) - tol, with
    tol = 10 * bisection tolerance relative to gamma*(all); the kept subset
    S is then solved once.  S satisfies gamma*(S) >= gamma*(all) - tol, and
    dropping any one of its members makes the rest feasible at that gamma,
    so by Helly's theorem (the decision variables are the D(D+1)/2 entries
    of P) S has at most D(D+1)/2 + 1 elements.  The subset checks start
    from the semidefiniteness cuts the full bisection learned, on the
    cache's rows (merged above the row-generation threshold, each named by
    its first sample).  A check whose oracle stalls keeps its member and is
    counted in `undecided`; the bound on |S| holds only when that count is 0.
    """
    opts = opts or SolveOptions()
    cache = _PairCache(obs, d)
    gamma_full, _ = _bisect_gamma(cache, opts, witness=False)
    tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
    if gamma_full <= 1e-12:
        return SupportResult(indices=(), gamma=0.0)
    D = cache.dim
    rows = cache.rows(gamma_full - tol)

    keep, undecided = list(range(len(rows))), 0
    for i in range(len(rows)):
        trial = [j for j in keep if j != i]
        # i may go when the rest is still infeasible at gamma_full - tol,
        # i.e. their own optimum cannot sit below it.
        try:
            if trial and not max_margin_feasibility(rows[trial], D, opts.c_bound,
                                                    cache.dirs).feasible:
                keep = trial
        except SolverStallError:  # no evidence: i stays
            undecided += 1
    keep = sorted(cache.index[keep].tolist())
    gamma, _ = _bisect_gamma(_PairCache(obs.subset(keep), d), opts, witness=False)
    return SupportResult(indices=tuple(keep), gamma=gamma, undecided=undecided)
