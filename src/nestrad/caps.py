"""Tail-supremum estimation from a convergence modulus.

If extending an observed index set H changes the radical's value by less
than epsilon (a convergence modulus), every coefficient is trapped: a
candidate larger than M_H = max observed coefficient would, shifted inward
and compared against the golden body, move the value by at least
M_H * (U(candidate / M_H) - U(1)).  Inverting U turns the modulus into
a certified interval for the supremum:

    sup alpha_k  in  [M_H, M_H * U^-1(epsilon / M_H + phi)].

The module consumes moduli; it does not produce them (deciding convergence
is not computable from raw coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .kappa import DEFAULT_DEPTH_CAP, PHI
from .ufunc import _u_bracket

__all__ = ["SupQuery", "SupSequenceResult", "sup_enclosure", "sup_sequence_bounds"]


@dataclass(frozen=True)
class SupQuery:
    """Observed maximum plus a convergence modulus."""

    m_h: float
    epsilon: float

    def __post_init__(self):
        # The trap formula divides by m_h; with no positive observation the
        # supremum of arbitrarily placed small coefficients is unbounded
        # below any invented cap, so m_h = 0 is rejected rather than guessed.
        if not (self.m_h > 0.0 and math.isfinite(self.m_h)):
            raise ValueError(f"observed maximum must be finite and > 0, got {self.m_h}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"modulus must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class SupSequenceResult:
    """Per-start-index intervals [lo_n, hi_n] for the tail suprema."""

    intervals: tuple[tuple[int, float, float], ...]


def sup_enclosure(query: SupQuery) -> tuple[float, float]:
    """Certified interval containing the coefficient supremum.

    ``hi`` is m_h times the certified upper end of a U^-1 bracket, with the
    target y and the product both rounded upward, so it never falls short.
    A ratio epsilon / m_h or a bound past binary64 raises ValueError.
    """
    # one step up covers the two roundings; the float PHI already exceeds phi
    y = math.nextafter(query.epsilon / query.m_h + PHI, math.inf)
    if math.isinf(y):
        raise ValueError(f"epsilon / m_h overflows binary64: {query.epsilon} / {query.m_h}")
    inverse_tol = 1e-9 * max(1.0, y)
    _, r_hi = _u_bracket(y, inverse_tol, DEFAULT_DEPTH_CAP, ties_below=True)
    hi = math.nextafter(query.m_h * r_hi, math.inf)
    if math.isinf(hi):
        raise ValueError(f"supremum bound m_h * U^-1(y) overflows binary64: {query.m_h} * {r_hi}")
    return (query.m_h, hi)


def sup_sequence_bounds(
    observed: Sequence[float], moduli: Iterable[tuple[int, float]]
) -> SupSequenceResult:
    """Intervals for sup_{k >= n} alpha_k, one per requested (n, epsilon_n).

    ``observed`` lists normalized coefficients alpha_1..alpha_p; each modulus
    must certify the radical built from the shifted tail starting at its n.
    The upper endpoints need not be monotone in n, since the moduli are
    independent.
    """
    observed = [float(v) for v in observed]
    for position, value in enumerate(observed, start=1):
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"observed coefficient {value} at index {position} must be >= 0")
    intervals = []
    for n, epsilon in moduli:
        if not 1 <= n <= len(observed):
            raise ValueError(f"start index {n} is outside the observed range 1..{len(observed)}")
        m_h = max(observed[n - 1:])
        lo, hi = sup_enclosure(SupQuery(m_h, float(epsilon)))
        intervals.append((n, lo, hi))
    return SupSequenceResult(tuple(intervals))
