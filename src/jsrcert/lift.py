"""Dense linear algebra for degree-d monomial lifts.

The d-lift maps a vector x in R^n to the vector of its degree-d monomials,
each weighted by the square root of its multinomial coefficient.  With that
weighting the lift is an isometry in the sense ||lift(x)|| = ||x||^d, and the
lift of a linear map A is again a linear map on the lifted space.  These two
facts are what make quartic-and-higher Lyapunov conditions expressible as
linear matrix inequalities, so everything downstream leans on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MultiIndex",
    "LiftedVector",
    "SymMatrix",
    "MatrixMetrics",
    "lift_dimension",
    "multi_index_set",
    "d_lift_vector",
    "d_lift_matrix",
    "lift_coefficient_matrix",
    "kron_power",
    "matrix_metrics",
    "ellipsoidal_norm",
]


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple alpha with |alpha| = d and its multinomial coefficient."""

    alpha: tuple[int, ...]
    coeff: int  # d! / (alpha_1! ... alpha_n!)

    @property
    def degree(self) -> int:
        return sum(self.alpha)


@dataclass(frozen=True)
class LiftedVector:
    """Degree-d lift of a base vector, entries in canonical index order."""

    n: int
    degree: int
    values: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def lift_dimension(n: int, d: int) -> int:
    """Number of distinct degree-d monomials in n variables, C(n+d-1, d)."""
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def _index_tuples(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # Graded lexicographic order, largest leading exponent first:
    # (2,0) > (1,1) > (0,2).  Every lift operation shares this order.
    if n == 1:
        return ((d,),)
    out = []
    for k in range(d, -1, -1):
        for rest in _index_tuples(n - 1, d - k):
            out.append((k,) + rest)
    return tuple(out)


def _multinomial(alpha: tuple[int, ...]) -> int:
    d = sum(alpha)
    c = math.factorial(d)
    for a in alpha:
        c //= math.factorial(a)
    return c


def multi_index_set(n: int, d: int) -> list[MultiIndex]:
    """All exponent tuples of degree d in n variables, canonical order.

    The order is stable across calls and shared by every lift operation.
    """
    if n < 1 or d < 1:
        raise ValueError(f"multi_index_set requires n >= 1 and d >= 1, got n={n}, d={d}")
    return [MultiIndex(alpha, _multinomial(alpha)) for alpha in _index_tuples(n, d)]


@lru_cache(maxsize=None)
def _exponents_and_weights(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    idx = multi_index_set(n, d)
    exps = np.array([mi.alpha for mi in idx], dtype=np.int64)
    weights = np.sqrt(np.array([mi.coeff for mi in idx], dtype=float))
    return exps, weights


def lift_batch(X: np.ndarray, d: int) -> np.ndarray:
    """Lift the rows of an (N, n) array; returns an (N, D) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    exps, weights = _exponents_and_weights(X.shape[1], d)
    # X[:, None, :] ** exps -> (N, D, n); product over the variable axis.
    monomials = np.prod(X[:, None, :] ** exps[None, :, :], axis=2)
    return monomials * weights[None, :]


def d_lift_vector(x, d: int) -> LiftedVector:
    """Lift x to its weighted degree-d monomial vector.

    Entry at exponent alpha is sqrt(multinomial(alpha)) * x^alpha, so the
    Euclidean norm of the result equals ||x||^d.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("d_lift_vector expects a 1-d vector")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not np.all(np.isfinite(x)):
        raise ValueError("d_lift_vector requires finite entries")
    values = lift_batch(x[None, :], d)[0]
    return LiftedVector(n=x.size, degree=d, values=values)


def kron_power(x, k: int) -> np.ndarray:
    """k-th Kronecker power of a vector, x (x) x (x) ... (x) x."""
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError(f"kron_power requires k >= 1, got {k}")
    out = x
    for _ in range(k - 1):
        out = np.kron(x, out)
    return out


@lru_cache(maxsize=None)
def _coeff_matrix(n: int, d: int) -> np.ndarray:
    idx = multi_index_set(n, d)
    row_of = {mi.alpha: i for i, mi in enumerate(idx)}
    inv_sqrt = {mi.alpha: 1.0 / math.sqrt(mi.coeff) for mi in idx}
    D = len(idx)
    C = np.zeros((D, n**d))
    # Column j of x^{(x)d} corresponds to the index tuple (i_1,...,i_d) read
    # off the base-n digits of j, most significant digit first.
    for col in range(n**d):
        alpha = [0] * n
        j = col
        for _ in range(d):
            alpha[j % n] += 1
            j //= n
        key = tuple(alpha)
        C[row_of[key], col] = inv_sqrt[key]
    return C


def lift_coefficient_matrix(n: int, d: int) -> np.ndarray:
    """Matrix C with lift(x) = C @ kron_power(x, d).

    Each row holds the value 1/sqrt(multinomial(alpha)) on the columns whose
    index tuple has exponent pattern alpha.  The rows are orthonormal, so
    C @ C.T = I and the spectral norm of C is exactly 1.
    """
    return _coeff_matrix(n, d).copy()


def d_lift_matrix(A, d: int) -> np.ndarray:
    """Lift of the linear map A: satisfies lift(A) @ lift(x) = lift(A @ x)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("d_lift_matrix expects a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("d_lift_matrix requires finite entries")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d == 1:
        return A.copy()
    n = A.shape[0]
    C = _coeff_matrix(n, d)
    Ak = A
    for _ in range(d - 1):
        Ak = np.kron(A, Ak)
    return C @ Ak @ C.T


class SymMatrix:
    """Real symmetric matrix stored as its packed upper triangle.

    Storage guarantees exact symmetry; eigenvalue extremes are computed once
    and cached.
    """

    __slots__ = ("dim", "packed", "_eig")

    def __init__(self, dim: int, packed: np.ndarray):
        packed = np.asarray(packed, dtype=float)
        if packed.shape != (dim * (dim + 1) // 2,):
            raise ValueError(f"packed length {packed.shape} does not match dim {dim}")
        self.dim = dim
        self.packed = packed
        self._eig = None

    @classmethod
    def from_full(cls, M) -> "SymMatrix":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("SymMatrix.from_full expects a square matrix")
        scale = max(1.0, float(np.abs(M).max()))
        if np.abs(M - M.T).max() > 1e-9 * scale:
            raise ValueError("matrix is not symmetric")
        iu = np.triu_indices(M.shape[0])
        sym = 0.5 * (M + M.T)
        return cls(M.shape[0], sym[iu])

    def full(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim))
        iu = np.triu_indices(self.dim)
        M[iu] = self.packed
        M.T[iu] = self.packed
        return M

    def _eigvals(self) -> np.ndarray:
        if self._eig is None:
            self._eig = np.linalg.eigvalsh(self.full())
        return self._eig

    @property
    def lambda_min(self) -> float:
        return float(self._eigvals()[0])

    @property
    def lambda_max(self) -> float:
        return float(self._eigvals()[-1])


@dataclass(frozen=True)
class MatrixMetrics:
    lambda_min: float
    lambda_max: float
    kappa: float
    spectral_norm: float


def matrix_metrics(P) -> MatrixMetrics:
    """Eigenvalue extremes, condition number sqrt(lmax/lmin), spectral norm.

    kappa is reported as +inf when the matrix is not positive definite.
    """
    if isinstance(P, SymMatrix):
        eigs = P._eigvals()
    else:
        P = np.asarray(P, dtype=float)
        scale = max(1.0, float(np.abs(P).max()))
        if np.abs(P - P.T).max() > 1e-9 * scale:
            raise ValueError("matrix_metrics requires a symmetric matrix")
        eigs = np.linalg.eigvalsh(P)
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    kappa = math.sqrt(lmax / lmin) if lmin > 0 else math.inf
    return MatrixMetrics(
        lambda_min=lmin,
        lambda_max=lmax,
        kappa=kappa,
        spectral_norm=float(np.abs(eigs).max()),
    )


def ellipsoidal_norm(P, x) -> float:
    """sqrt(x^T P x) for positive semidefinite P."""
    M = P.full() if isinstance(P, SymMatrix) else np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    q = float(x @ M @ x)
    if q < 0.0:
        if q < -1e-12:
            raise ValueError(f"quadratic form is negative ({q:.3e}); P is not PSD")
        q = 0.0
    return math.sqrt(q)
