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

from ._record import Record
from .kappa import DEFAULT_DEPTH_CAP, PHI
from .ufunc import _u_bracket

__all__ = ["SupQuery", "sup_enclosure"]


class SupQuery(Record):
    """Observed maximum plus a convergence modulus."""

    __slots__ = ("m_h", "epsilon")

    def __init__(self, m_h: float, epsilon: float):
        # The trap formula divides by m_h; with no positive observation the
        # supremum of arbitrarily placed small coefficients is unbounded
        # below any invented cap, so m_h = 0 is rejected rather than guessed.
        if not (m_h > 0.0 and math.isfinite(m_h)):
            raise ValueError(f"observed maximum must be finite and > 0, got {m_h}")
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            raise ValueError(f"modulus must be finite and > 0, got {epsilon}")
        self._set_m_h(self, m_h)
        self._set_epsilon(self, epsilon)


def sup_enclosure(query: SupQuery) -> tuple[float, float]:
    """Certified interval containing the coefficient supremum.

    ``hi`` is m_h times the certified upper end r_hi of a U^-1 bracket,
    with the target y and the product both rounded upward, so it never
    falls short.  It is also tight: U(r_hi) - y < 3 tol/4 for the inverse
    tolerance tol = 1e-9 * max(1, y), normally shown by a single enclosure
    (``ufunc._u_bracket``), so U(hi / m_h) exceeds y by less than that plus
    the two upward steps of the product.  A ratio epsilon / m_h or a bound
    past binary64 raises ValueError.
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
