"""Finite nested evaluation h(a_1 + h(a_2 + ... h(a_n + seed))).

Two engines live here.  :func:`nested_eval` folds an arbitrary non-decreasing
concave outer function over raw coefficients.  :func:`sqrt_nested_scaled`
specializes to square roots with coefficients given as ln(alpha_k), the log
of the normalized scale: it rescales by the largest normalized value so that
every scaled coefficient lies in [0, 1], and keeps every intermediate on the
normalized log scale, which makes the fold immune to overflow at any depth.
Rescaling is sound because the radical is homogeneous on the normalized
scale: multiplying every normalized coefficient and the seed by C multiplies
the value by C.

Everything is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "OuterFunction",
    "SQRT",
    "ARCTAN",
    "Enclosure",
    "nested_eval",
    "sqrt_nested_scaled",
]

_NEG_INF = float("-inf")

# Floor for the rescaling maximum; keeps all-zero inputs away from log(0)
# while staying far below any normalized coefficient of interest.
_SCALE_FLOOR_LOG = -512.0 * math.log(2.0)


@dataclass(frozen=True)
class OuterFunction:
    """A non-decreasing concave function h on [0, inf), with its ceiling.

    ``ceiling`` is the supremum of h over [0, inf]; it may be ``math.inf``.
    For arctan it is stored as pi/2 exactly, i.e. with one application of h
    already performed on the infinite argument.  Concavity and monotonicity
    are caller obligations, spot-checked by the randomized property suites.
    """

    eval: Callable[[float], float]
    value_at_zero: float
    ceiling: float
    label: str


SQRT = OuterFunction(math.sqrt, 0.0, math.inf, "sqrt")
ARCTAN = OuterFunction(math.atan, 0.0, math.pi / 2.0, "arctan")


@dataclass(frozen=True)
class Enclosure:
    """A certified interval [lo, hi] around a limit.

    ``analytic_width_bound`` is the exact-arithmetic bound on hi - lo;
    ``fp_slack`` is the floating-point allowance (outward padding already
    applied to lo/hi, plus evaluation noise) so that
    ``width <= analytic_width_bound + fp_slack`` always holds.
    """

    lo: float
    hi: float
    depth: int
    analytic_width_bound: float
    fp_slack: float = 0.0

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"enclosure needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def nested_eval(h: OuterFunction, terms: Sequence[float], seed: float) -> float:
    """Right-to-left fold v <- h(terms[k] + v) starting from the seed."""
    if seed < 0.0 or not math.isfinite(seed):
        raise ValueError(f"seed must be finite and >= 0, got {seed}")
    value = seed
    for position in range(len(terms) - 1, -1, -1):
        term = terms[position]
        if term < 0.0 or not math.isfinite(term):
            raise ValueError(f"term {term} at position {position + 1} must be finite and >= 0")
        value = h.eval(term + value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite intermediate at position {position + 1}")
    return value


def sqrt_nested_scaled(ln_alphas: Sequence[float], seed_norm: float) -> float:
    """sqrt(a_1 + sqrt(a_2 + ... sqrt(a_n + seed_norm ** 2**n))).

    ``ln_alphas`` holds ln(alpha_k) = 2**-k * ln(a_k) for k = 1..n (``-inf``
    encodes a zero coefficient) and the seed is given on the same normalized
    scale.  After rescaling by the largest normalized value C, let
    x_k = ln(alpha_k / C) and y_k be the log of the normalized value of the
    radical from index k.  The levels obey

        y_k = max + 2**-k * log1p(exp(2**k * (min - max)))

    over the pair (x_k, y_{k+1}): the log-sum-exp of the raw-scale recursion
    v_k = sqrt(b_k + v_{k+1}) taken on the normalized scale, so neither the
    huge raw coefficients nor the vanishing deep levels can overflow or be
    flushed to zero.  The 2**k scalings use ``math.ldexp`` and are exact.
    """
    n = len(ln_alphas)
    if not seed_norm >= 0.0 or math.isinf(seed_norm):
        raise ValueError(f"seed must be finite and >= 0, got {seed_norm}")
    for k, ln_alpha in enumerate(ln_alphas, start=1):
        if not ln_alpha < math.inf:
            raise ValueError(f"ln alpha at index {k} must lie in [-inf, inf), got {ln_alpha}")
    ln_seed = math.log(seed_norm) if seed_norm > 0.0 else _NEG_INF
    scale_log = max([ln_seed, _SCALE_FLOOR_LOG, *ln_alphas])
    ln_value = ln_seed - scale_log
    for k in range(n, 0, -1):
        x = ln_alphas[k - 1] - scale_log
        high, low = (x, ln_value) if x > ln_value else (ln_value, x)
        ln_value = high
        if low != _NEG_INF:
            try:
                gap = math.ldexp(low - high, k)
            except OverflowError:  # exp(gap) would be 0
                continue
            ln_value += math.ldexp(math.log1p(math.exp(gap)), -k)
    if ln_value == _NEG_INF:
        return 0.0
    return math.exp(scale_log + ln_value)

