"""Output checks of the benchmark, run outside the timed interval.

Each check returns None when the output passes and a one-line reason when
it fails; an operation with any reason counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

from jsrcert.lift import lift_batch

# The bisection tolerance of the default solver options (ROADMAP: certified
# bounds agree within 1e-6 relative).
REL_TOL = 1e-6


def verified_rate(X0: np.ndarray, XL: np.ndarray, P: np.ndarray, d: int, l: int) -> float:
    """max_i (v_i'Pv_i / u_i'Pu_i)^(1/(2dl)) over the lifted endpoint pairs."""
    U = lift_batch(X0, d)
    V = lift_batch(XL, d)
    num = np.einsum("ij,jk,ik->i", V, P, V)
    den = np.einsum("ij,jk,ik->i", U, P, U)
    return float(np.max(num / den)) ** (1.0 / (2 * d * l))


def check_rate(rate: float, gamma_star: float) -> str | None:
    """The certificate's P must decrease on every sample at rate gamma_star."""
    if rate > gamma_star * (1.0 + REL_TOL):
        return f"P verifies only at rate {rate!r} > gamma_star {gamma_star!r}"
    return None


def check_floor(bound: float, finite: bool, floor: float) -> str | None:
    """A finite upper bound at or below a proven JSR lower bound is invalid."""
    if finite and bound <= floor:
        return f"bound {bound!r} is at or below the JSR lower bound {floor!r}"
    return None


def check_reference(name: str, value: float, reference: float) -> str | None:
    """Agreement with a recorded reference output within REL_TOL."""
    if math.isinf(value) or math.isinf(reference):
        same = value == reference
    else:
        same = abs(value - reference) <= REL_TOL * max(abs(reference), 1e-300)
    if not same:
        return f"{name} {value!r} differs from the reference {reference!r}"
    return None


def check_same(name: str, value, first) -> str | None:
    """Repeated operations on the same inputs must give identical outputs."""
    if value != first:
        return f"{name} differs from the first operation of this run"
    return None
