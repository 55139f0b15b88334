"""White-box ground-truth computations for validation and experiments.

Everything here assumes full knowledge of the mode matrices and exists to
check the black-box certifier from the outside: exact worst product norms,
spectral-radius lower bounds on the joint spectral radius, a dense-grid
version of the decrease-rate program, support-constraint extraction, and a
Monte-Carlo check of the cap measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .caps import delta_cap
from .certifier import SolveOptions, _bisect_gamma, _PairCache, solve_gamma
from .lmi import max_margin_feasibility
from .sampling import ModeSet, ObservationSet

__all__ = [
    "ProductEnumeration",
    "WhiteboxResult",
    "SupportResult",
    "enumerate_products",
    "exact_B",
    "jsr_lower_bound",
    "whitebox_gamma",
    "support_constraints",
    "cap_measure_mc",
]

_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ProductEnumeration:
    """All ordered length-l mode products, lexicographic in the sequence."""

    l: int
    sequences: tuple[tuple[int, ...], ...]
    matrices: tuple[np.ndarray, ...]


def enumerate_products(modes: ModeSet, l: int) -> ProductEnumeration:
    if l < 1:
        raise ValueError(f"product length must be >= 1, got {l}")
    if modes.m**l > _ENUMERATION_CAP:
        raise ValueError(f"m^l = {modes.m}^{l} exceeds the enumeration cap {_ENUMERATION_CAP}")
    sequences = []
    matrices = []
    for seq in itertools.product(range(modes.m), repeat=l):
        prod = np.eye(modes.n)
        for j in seq:  # sequence applied first-to-last: A_{j_l} ... A_{j_1}
            prod = modes.matrices[j] @ prod
        sequences.append(seq)
        matrices.append(prod)
    return ProductEnumeration(l=l, sequences=tuple(sequences), matrices=tuple(matrices))


def exact_B(modes: ModeSet, l: int) -> float:
    """Largest spectral norm over all length-l mode products."""
    products = enumerate_products(modes, l)
    return max(float(np.linalg.norm(A, 2)) for A in products.matrices)


def jsr_lower_bound(modes: ModeSet, k_max: int) -> float:
    """max over k <= k_max of (spectral radius of a length-k product)^(1/k).

    Always a valid lower bound on the joint spectral radius.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if modes.m**k_max > _ENUMERATION_CAP:
        raise ValueError(f"m^k_max exceeds the enumeration cap {_ENUMERATION_CAP}")
    best = 0.0
    level = [np.eye(modes.n)]
    for k in range(1, k_max + 1):
        level = [A @ p for A in modes.matrices for p in level]
        rho_k = max(float(np.abs(np.linalg.eigvals(p)).max()) for p in level)
        best = max(best, rho_k ** (1.0 / k))
    return best


@dataclass(frozen=True)
class WhiteboxResult:
    gamma: float
    grid_points: int
    surrogate: bool


def _sphere_grid(n: int, count: int, seed: int) -> np.ndarray:
    if n == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.Generator(np.random.Philox(key=seed))
    G = rng.standard_normal((count, n))
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def whitebox_gamma(
    modes: ModeSet,
    l: int,
    d: int,
    grid: int = 720,
    opts: SolveOptions | None = None,
    seed: int = 0,
) -> WhiteboxResult:
    """Decrease-rate optimum with the full product set on a dense sphere grid.

    For n = 2 the grid is `grid` equally spaced angles on the circle; for
    n >= 3 there is no canonical grid, so `grid` quasi-uniform samples are
    used instead and the result is flagged as a surrogate.  Constraints at
    all (grid point, product) pairs are solved by the same bisection
    machinery as the sampled problem, so the value approaches the true
    optimum from below as the grid refines.
    """
    opts = opts or SolveOptions()
    X = _sphere_grid(modes.n, grid, seed)
    products = enumerate_products(modes, l)
    X0 = np.vstack([X] * len(products.matrices))
    XL = np.vstack([X @ A.T for A in products.matrices])
    obs = ObservationSet(l, X0, XL)
    gamma, _ = solve_gamma(obs, d, opts, tie_break=False)
    return WhiteboxResult(gamma=gamma, grid_points=grid, surrogate=modes.n != 2)


@dataclass(frozen=True)
class SupportResult:
    indices: tuple[int, ...]
    gamma: float


def support_constraints(
    obs: ObservationSet,
    d: int,
    opts: SolveOptions | None = None,
) -> SupportResult:
    """Small subset of observations that reproduces the sampled optimum.

    Exhaustive subset search (smallest first) for N <= 20, greedy constraint
    dropping otherwise.  The returned subset S satisfies
    gamma*(S) >= gamma*(all) - 10 * bisection tolerance and has at most
    D(D+1)/2 + 1 elements in exhaustive mode.  The subset checks start from
    the semidefiniteness cuts the full bisection learned.
    """
    opts = opts or SolveOptions()
    cache = _PairCache(obs, d)
    gamma_full, _ = _bisect_gamma(cache, opts)
    tol = 10.0 * opts.bisection_rel_tol * max(gamma_full, 1e-12)
    if gamma_full <= 1e-12:
        return SupportResult(indices=(), gamma=0.0)
    D = cache.dim
    max_size = D * (D + 1) // 2 + 1
    rows = cache.rows(gamma_full - tol)

    def pins_gamma(idx) -> bool:
        """True when the subset is already infeasible at gamma_full - tol,
        i.e. its own optimum cannot sit below it."""
        result = max_margin_feasibility(rows[list(idx)], D, opts.c_bound, cache.dirs)
        return not result.feasible

    def solved_gamma(idx) -> float:
        if not idx:
            return 0.0
        g, _ = solve_gamma(obs.subset(idx), d, opts, tie_break=False)
        return g

    if obs.N <= 20:
        for k in range(1, min(obs.N, max_size) + 1):
            for subset in itertools.combinations(range(obs.N), k):
                if pins_gamma(subset):
                    g = solved_gamma(subset)
                    if g >= gamma_full - tol:
                        return SupportResult(indices=subset, gamma=g)
        return SupportResult(indices=tuple(range(obs.N)), gamma=gamma_full)

    keep = list(range(obs.N))
    for i in range(obs.N):
        trial = [j for j in keep if j != i]
        if trial and pins_gamma(trial):
            keep = trial
    return SupportResult(indices=tuple(keep), gamma=solved_gamma(keep))


def cap_measure_mc(c, eps: float, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the uniform measure of the cap C(c, eps)."""
    c = np.asarray(c, dtype=float)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    threshold = delta_cap(eps, c.size)
    G = rng.standard_normal((samples, c.size))
    X = G / np.linalg.norm(G, axis=1, keepdims=True)
    return float(np.count_nonzero(X @ c > threshold)) / samples
