"""Probabilistic upper bounds on the joint spectral radius.

Combines the three sampled quantities (decrease rate gamma*, growth bound
lambda*, condition number kappa) with the spherical-cap concentration
formulas into a single certificate:

    rho <= ( gamma*^(dl) + (gamma*^(dl) + A^d) f(d, eps) kappa )^(1/(dl))

holding with probability at least beta + beta1 - 1, where A inflates
lambda* by the cap threshold of eps_1, and f reduces to the chord bound
Delta(eps) in the quadratic case d = 1.

An infinite bound (delta(eps_1) = 0, too few samples, or a bound beyond the
float range) is an informative first-class outcome, reported with
finite=False rather than raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .caps import ConfidenceBudget, cap_params, delta_cap, eps_cover, eps_one

__all__ = [
    "CertificateReport",
    "bound_B",
    "f_correction",
    "combine_bound",
    "jsr_upper_bound",
]


@dataclass(frozen=True)
class CertificateReport:
    """Every quantity entering the certificate, plus regime flags."""

    d: int
    l: int
    N: int
    m: int
    gamma_star: float
    kappa: float
    lambda_star: float
    beta: float
    beta1: float
    eps: float
    eps1: float
    delta_eps: float
    delta_eps1: float
    Delta: float
    f_value: float
    A_value: float
    jsr_upper_bound: float
    confidence: float
    finite: bool
    flags: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def bound_B(lambda_star: float, delta: float, l: int) -> float:
    """Probabilistic bound on the worst product norm: lambda*/delta^(1/l).

    `delta` is the cap threshold delta(eps1); +inf when it is 0, i.e. when
    eps1 >= 1/2 and the sample is too small to localize the growth rate.
    """
    if lambda_star < 0:
        raise ValueError(f"lambda_star must be non-negative, got {lambda_star}")
    if delta == 0.0:
        return math.inf
    return lambda_star / delta ** (1.0 / l)


def f_correction(d: int, Delta: float, D: int) -> float:
    """Lift perturbation factor sqrt(D)((1+Delta)^d - 1 - (1-1/sqrt(D)) Delta^d).

    For d = 1 this collapses to Delta itself.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not 0.0 <= Delta <= math.sqrt(2.0) + 1e-12:
        raise ValueError(f"Delta must lie in [0, sqrt(2)], got {Delta}")
    sD = math.sqrt(D)
    return sD * ((1.0 + Delta) ** d - 1.0 - (1.0 - 1.0 / sD) * Delta**d)


def combine_bound(
    gamma_star: float, A_value: float, f_value: float, kappa: float, d: int, l: int
) -> float:
    """Assemble (gamma^(dl) + (gamma^(dl) + A^d) f kappa)^(1/(dl))."""
    if math.isinf(A_value):
        return math.inf
    try:
        g = gamma_star ** (d * l)
        raw = g + (g + A_value**d) * f_value * kappa
    except OverflowError:  # a true bound beyond the float range
        return math.inf
    return raw ** (1.0 / (d * l))


def jsr_upper_bound(
    gamma_star: float,
    kappa: float,
    lambda_star: float,
    budget: ConfidenceBudget,
    flags: dict | None = None,
    provenance: dict | None = None,
) -> CertificateReport:
    """Certificate report for solved sampled optima under a confidence budget.

    The budget ensures n >= 2 and N >= D(D+1)/2 + 1, D being the lift
    dimension; the covering measure eps is computed with D(D+1)/2 free
    variables, which reproduces the quadratic-case formula exactly when
    d = 1 (D = n).
    """
    eps = eps_cover(budget.beta, budget.ml, budget.free_vars, budget.N)
    cover = cap_params(eps, budget.n)
    eps1 = eps_one(budget.beta1, budget.m, budget.l, budget.N)
    delta_eps1 = delta_cap(eps1, budget.n)
    A_value = bound_B(lambda_star, delta_eps1, budget.l)
    f_value = f_correction(budget.d, cover.Delta, budget.lift_dim)
    bound = combine_bound(gamma_star, A_value, f_value, kappa, budget.d, budget.l)
    raw_confidence = budget.beta + budget.beta1 - 1.0
    all_flags = {
        "delta_eps_zero": cover.delta_zero,
        "delta_eps1_zero": delta_eps1 == 0.0,
        "vacuous_confidence": raw_confidence < 0.0,
    }
    if flags:
        all_flags.update(flags)
    return CertificateReport(
        d=budget.d,
        l=budget.l,
        N=budget.N,
        m=budget.m,
        gamma_star=gamma_star,
        kappa=kappa,
        lambda_star=lambda_star,
        beta=budget.beta,
        beta1=budget.beta1,
        eps=eps,
        eps1=eps1,
        delta_eps=cover.delta,
        delta_eps1=delta_eps1,
        Delta=cover.Delta,
        f_value=f_value,
        A_value=A_value,
        jsr_upper_bound=bound,
        confidence=max(0.0, raw_confidence),
        finite=math.isfinite(bound),  # delta(eps1) = 0 makes it infinite too
        flags=all_flags,
        provenance=provenance or {},
    )
