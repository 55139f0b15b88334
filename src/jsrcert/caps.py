"""Spherical-cap geometry and sample-complexity formulas.

A spherical cap of uniform measure eps on the unit sphere in R^n has the form
{x : c.x > delta(eps)} where delta is expressed through the inverse of the
regularized incomplete beta function.  This module implements that special
function pair from scratch (continued fraction forward, bracketed Newton
inverse), the cap threshold delta(eps), and the cap measures that the
certification bounds draw from their confidence levels.

Convention: delta(eps) = 0 for eps >= 1/2 (the cap is at least a
hemisphere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lift import lift_dimension

__all__ = [
    "ConfidenceBudget",
    "CapParams",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "delta_cap",
    "cap_params",
    "eps_cover",
    "eps_one",
    "min_samples_finite",
]

_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_INV_MAX_ITER = 200
_INV_TOL = 1e-13


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # even step, then odd
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:  # converged on the odd step's factor
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I(x; a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Symmetry switch keeps the continued fraction in its fast-convergence
    # region on both sides.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _inv_lower(y: float, a: float, b: float) -> float:
    """Solve I(x; a, b) = y by bracketed Newton with bisection fallback.

    Intended for the lower branch (y <= 1/2 after the caller's symmetry
    switch), where the answer keeps full relative precision near 0.
    """
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    lo, hi = 0.0, 1.0
    x = min(a / (a + b), 0.75)
    f = reg_inc_beta(x, a, b) - y
    for _ in range(_INV_MAX_ITER):
        if f > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 1e-16 * max(hi, 1e-300) or x <= 0.0 or x >= 1.0:
            # Bracket pinched to double resolution.
            return x
        log_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta
        if log_pdf > 700.0:
            x_new = 0.5 * (lo + hi)
        else:
            x_new = x - f * math.exp(-log_pdf)
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
        # Converge in x, not just in function value: where the density is
        # nearly flat a small residual still leaves x poorly located.
        if abs(f) <= _INV_TOL and abs(x_new - x) <= 4e-16 * max(x, 1e-300):
            return x_new
        x = x_new
        f = reg_inc_beta(x, a, b) - y
    if abs(f) > 1e-12:
        raise ArithmeticError(f"inv_reg_inc_beta did not converge (y={y}, a={a}, b={b})")
    return x


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of I(.; a, b): the x in [0, 1] with I(x; a, b) = y.

    Bracketed Newton iteration with bisection fallback.  Solved on the
    complement side for y > 1/2 (via I(x; a, b) = 1 - I(1-x; b, a)), so the
    iteration always runs where the answer has full relative precision.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"inv_reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"inv_reg_inc_beta requires y in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    if y > 0.5:
        return 1.0 - _inv_lower(1.0 - y, b, a)
    return _inv_lower(y, a, b)


def delta_cap(eps: float, n: int) -> float:
    """Threshold delta(eps) of the spherical cap of measure eps in R^n.

    delta(eps) = sqrt(1 - I^{-1}(2 eps; (n-1)/2, 1/2)) on (0, 1/2), and 0
    for eps >= 1/2: a cap of measure one half or more contains the whole
    open hemisphere of its direction.
    """
    if eps <= 0.0:
        raise ValueError(f"delta_cap requires eps > 0, got {eps}")
    if n < 2:
        raise ValueError(f"delta_cap requires dimension n >= 2, got {n}")
    if eps >= 0.5:
        return 0.0
    a = (n - 1) / 2.0
    y = 2.0 * eps
    # delta^2 = 1 - I^{-1}(y; a, 1/2) is the complement quantile; for
    # y > 1/2 compute it directly on the complement side so delta keeps
    # full precision as it approaches 0.
    if y > 0.5:
        comp = _inv_lower(1.0 - y, 0.5, a)
    else:
        comp = 1.0 - _inv_lower(y, a, 0.5)
    return math.sqrt(max(0.0, comp))


@dataclass(frozen=True)
class CapParams:
    """Cap measure eps with its threshold delta and chord bound Delta."""

    delta: float
    Delta: float
    delta_zero: bool  # eps >= 1/2 regime


def cap_params(eps: float, n: int) -> CapParams:
    delta = delta_cap(eps, n)
    return CapParams(
        delta=delta,
        Delta=math.sqrt(2.0 - 2.0 * delta),
        delta_zero=(eps >= 0.5),
    )


@dataclass(frozen=True)
class ConfidenceBudget:
    """Confidence levels and sampling parameters of a certification run.

    beta covers the constraint-covering event, beta1 the growth-rate bound;
    m is the user-supplied upper bound on the number of modes.  The cap
    formulas need n >= 2 and a growth-rate cap eps_one > 0, and N must be at
    least D(D+1)/2 + 1, D being the lift dimension of (n, d).
    """

    beta: float
    beta1: float
    m: int
    l: int
    N: int
    n: int
    d: int

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0 or not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta and beta1 must lie in [0, 1)")
        if self.m < 1 or self.l < 1 or self.N < 1 or self.d < 1:
            raise ValueError("m, l, N and d must all be >= 1")
        if self.n < 2:
            raise ValueError("cap-based certificates require state dimension n >= 2")
        if self.N < self.free_vars + 1:
            raise ValueError(
                f"N={self.N} is below the minimum sample count {self.free_vars + 1} "
                f"required for degree d={self.d} (D(D+1)/2 + 1 with D={self.lift_dim})"
            )
        if eps_one(self.beta1, self.m, self.l, self.N) == 0.0:  # delta_cap refuses eps = 0
            raise ValueError(f"beta1={self.beta1!r} leaves no growth-rate cap at N={self.N}: "
                             f"(1 - beta1)^(1/N) rounds to 1")

    @property
    def ml(self) -> float:
        return _ml_float(self.m, self.l)

    @property
    def lift_dim(self) -> int:
        return lift_dimension(self.n, self.d)

    @property
    def free_vars(self) -> int:
        D = self.lift_dim
        return D * (D + 1) // 2


def _ml_float(m: int, l: int) -> float:
    """m^l as a float: the exact power rounded once, math.inf past the float range."""
    if m > 1 and l > 1100:  # 2^1100 is past the float range; skip the huge power
        return math.inf
    try:
        return float(m**l)
    except OverflowError:
        return math.inf


def eps_cover(beta: float, ml: float, d1: int, N: int) -> float:
    """Cap measure for which the covering event has probability >= beta.

    The covering event: the sampled optimum violates its constraint on a
    set of (initial state, length-l product) pairs of measure at most eps,
    each product carrying the uniform sphere measure.  Its probability is
    at least 1 - (d1+1)(1 - eps/m^l)^N; setting that to beta gives
    eps = m^l (1 - ((1-beta)/(d1+1))^(1/N)), where d1 is the number of free
    variables of the shape matrix (n(n+1)/2 in the quadratic case,
    D(D+1)/2 in the lifted case).
    """
    if d1 < 1:
        raise ValueError(f"d1 must be >= 1, got {d1}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return ml * (1.0 - ((1.0 - beta) / (d1 + 1)) ** (1.0 / N))


def eps_one(beta1: float, m: int, l: int, N: int) -> float:
    """Cap measure of the growth-rate bound: m^l/2 (1 - (1-beta1)^(1/N)).

    math.inf when m^l is past the float range, unless beta1 = 0 makes it 0.
    """
    shrink = 1.0 - (1.0 - beta1) ** (1.0 / N)
    return _ml_float(m, l) / 2.0 * shrink if shrink else 0.0


def min_samples_finite(beta1: float, m: int, l: int) -> int:
    """Smallest N for which the growth-rate bound is finite.

    Finiteness needs eps_one < 1/2 so that delta(eps_one) > 0.  The closed
    form N > log(1-beta1) / log(1 - 1/m^l) brackets N, and a bisection on the
    computed eps_one, which the bound uses, finds it.  From m^l = 2^53 on the
    computed eps_one cannot resolve its threshold, so this raises.
    """
    if not 0.0 < beta1 < 1.0:
        raise ValueError(f"min_samples_finite requires beta1 in (0, 1), got {beta1}")
    if m < 1 or l < 1:
        raise ValueError(f"min_samples_finite requires m >= 1 and l >= 1, got m={m}, l={l}")
    ml = _ml_float(m, l)
    if ml <= 1:
        return 1
    if ml >= 2.0**53:
        raise ValueError(f"min_samples_finite cannot resolve m^l >= 2^53 (m={m}, l={l})")
    lo, hi = 0, max(1, math.ceil(math.log1p(-beta1) / math.log1p(-1.0 / ml)))
    while eps_one(beta1, m, l, hi) >= 0.5:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # eps_one(lo) >= 1/2 > eps_one(hi), with eps_one(0) read as 1/2
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if eps_one(beta1, m, l, mid) < 0.5 else (mid, hi)
    return hi
