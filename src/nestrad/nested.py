"""Finite nested evaluation h(a_1 + h(a_2 + ... h(a_n + seed))).

Two engines live here.  :func:`nested_eval` folds an arbitrary non-decreasing
concave outer function over raw coefficients.  :func:`sqrt_nested_scaled`
specializes to square roots with coefficients given as ln(alpha_k), the log
of the normalized scale, and folds a lower and an upper seed in one pass: it
rescales by the largest normalized value so that every scaled coefficient
lies in [0, 1], and keeps every intermediate on the normalized log scale,
which makes the fold immune to overflow at any depth.
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


def sqrt_nested_scaled(
    ln_alphas: Sequence[float], lo_seed: float, hi_seed: float
) -> tuple[float, float]:
    """Both folds sqrt(a_1 + sqrt(a_2 + ... sqrt(a_n + s ** 2**n))), s = lo_seed and hi_seed.

    ``ln_alphas`` holds ln(alpha_k) = 2**-k * ln(a_k) for k = 1..n (``-inf``
    encodes a zero coefficient) and each seed s is given on the same
    normalized scale.  Each side rescales by its own largest normalized
    value C = max(s, alpha_1..alpha_n); with x_k = ln(alpha_k / C) and y_k
    the log of the normalized value of the radical from index k, the levels
    obey

        y_k = max + 2**-k * log1p(exp(2**k * (min - max)))

    over the pair (x_k, y_{k+1}): the log-sum-exp of the raw-scale recursion
    v_k = sqrt(b_k + v_{k+1}) taken on the normalized scale, so neither the
    huge raw coefficients nor the vanishing deep levels can overflow or be
    flushed to zero.  The 2**k scalings use ``math.ldexp`` and are exact.

    The two seeds share one pass over ``ln_alphas``, but each side runs the
    float operations it would run alone, so each returned value depends only
    on ``ln_alphas`` and its own seed.  Returns ``(lo_value, hi_value)``.
    """
    for seed in (lo_seed, hi_seed):
        if not seed >= 0.0 or math.isinf(seed):
            raise ValueError(f"seed must be finite and >= 0, got {seed}")
    if not sum(ln_alphas) < math.inf:  # a NaN or +inf term, or a sum past binary64
        for k, ln_alpha in enumerate(ln_alphas, start=1):
            if not ln_alpha < math.inf:
                raise ValueError(f"ln alpha at index {k} must lie in [-inf, inf), got {ln_alpha}")
    top = max([_SCALE_FLOOR_LOG, *ln_alphas])
    scale_lo, y_lo = _seed_log(lo_seed, top)
    scale_hi, y_hi = _seed_log(hi_seed, top)
    ldexp, exp, log1p, neg_inf = math.ldexp, math.exp, math.log1p, _NEG_INF
    for k in range(len(ln_alphas), 0, -1):
        ln_alpha = ln_alphas[k - 1]
        # per side: y becomes the larger of the pair and x the smaller
        x = ln_alpha - scale_lo
        if x > y_lo:
            x, y_lo = y_lo, x
        if x != neg_inf:
            try:
                y_lo += ldexp(log1p(exp(ldexp(x - y_lo, k))), -k)
            except OverflowError:  # exp of the gap would be 0
                pass
        x = ln_alpha - scale_hi
        if x > y_hi:
            x, y_hi = y_hi, x
        if x != neg_inf:
            try:
                y_hi += ldexp(log1p(exp(ldexp(x - y_hi, k))), -k)
            except OverflowError:
                pass
    return (
        0.0 if y_lo == _NEG_INF else exp(scale_lo + y_lo),
        0.0 if y_hi == _NEG_INF else exp(scale_hi + y_hi),
    )


def _seed_log(seed: float, top: float) -> tuple[float, float]:
    """(scale_log, ln of the seed on that scale) for one side of the fold."""
    ln_seed = math.log(seed) if seed > 0.0 else _NEG_INF
    scale_log = max(ln_seed, top)
    return scale_log, ln_seed - scale_log
