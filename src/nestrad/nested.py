"""Finite nested evaluation h(a_1 + h(a_2 + ... h(a_n + seed))).

Two engines live here.  :func:`nested_eval` folds an arbitrary non-decreasing
outer function over raw coefficients.  :func:`sqrt_nested_scaled`
specializes to square roots with coefficients and seeds given as logs on
the normalized scale, ln(alpha_k), and folds both seeds in one pass: it
rescales by the largest normalized value folded so far, so that every
scaled coefficient lies in [0, 1], and runs each level on that raw scale
with one exp and one sqrt per level that runs, which makes the fold immune
to overflow at any depth and loses nothing to underflow.
Rescaling is sound because the radical is homogeneous on the normalized
scale: multiplying every normalized coefficient and the seed by C multiplies
the value by C.

Everything is pure and reentrant.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import Record

__all__ = [
    "OuterFunction",
    "ARCTAN",
    "Enclosure",
    "nested_eval",
    "sqrt_nested_scaled",
]

_INF = float("inf")

# The scale a zero seed starts from: the least finite float, so that all-zero
# inputs keep a finite scale while any nonzero input sets it.  A scale that is
# no input would leave the dominant x = ln_alpha - scale rounded at ulp(x).
_SCALE_FLOOR_LOG = -1.7976931348623157e308

# 2**-k for k = 0..1074, every one an exact binary64 number; the fold's
# scalings read level k's from here (see sqrt_nested_scaled).
_INV_POW2 = [math.ldexp(1.0, -k) for k in range(1075)]
_DEEPEST_LEVEL = len(_INV_POW2) - 1


class OuterFunction(Record):
    """A non-decreasing function h on [0, inf), with its ceiling.

    ``eval`` is h itself, so h(0) is ``eval(0.0)``; ``label`` names h in
    error messages.  ``ceiling`` is the supremum of h over [0, inf]; it may
    be ``math.inf``.  For arctan it is pi/2, h applied to the infinite
    argument.  Monotonicity, which traps the tail of
    :func:`nestrad.contfn.cf_limit` between h(0) and the ceiling, is a caller
    obligation.  So is accuracy: ``eval`` and ``ceiling`` within 1 ulp, and a
    relative error in the argument passed on at most unchanged (x * h'(x) <=
    h(x), true of concave h with h(0) >= 0), the budget of the
    :mod:`nestrad.contfn` docstring.
    """

    __slots__ = ("eval", "ceiling", "label")

    def __init__(self, eval: Callable[[float], float], ceiling: float, label: str):
        self._set_eval(self, eval)
        self._set_ceiling(self, ceiling)
        self._set_label(self, label)


ARCTAN = OuterFunction(math.atan, math.pi / 2.0, "arctan")


class Enclosure(Record):
    """A certified interval [lo, hi] around a limit.

    ``analytic_width_bound`` is the exact-arithmetic bound on hi - lo;
    ``fp_slack`` is the floating-point allowance (outward padding already
    applied to lo/hi, plus evaluation noise) so that
    ``width <= analytic_width_bound + fp_slack`` always holds.
    """

    __slots__ = ("lo", "hi", "depth", "analytic_width_bound", "fp_slack")

    def __init__(
        self, lo: float, hi: float, depth: int, analytic_width_bound: float, fp_slack: float = 0.0
    ):
        if not lo <= hi:
            raise ValueError(f"enclosure needs lo <= hi, got [{lo}, {hi}]")
        self._set_lo(self, lo)
        self._set_hi(self, hi)
        self._set_depth(self, depth)
        self._set_analytic_width_bound(self, analytic_width_bound)
        self._set_fp_slack(self, fp_slack)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi


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
    ln_alphas: Sequence[float], ln_lo_seed: float, ln_hi_seed: float
) -> tuple[float, float]:
    """Both folds sqrt(a_1 + sqrt(a_2 + ... sqrt(a_n + s ** 2**n))), ln(s) = ln_lo_seed and ln_hi_seed.

    ``ln_alphas`` holds ln(alpha_k) = 2**-k * ln(a_k) for k = 1..n and each
    seed is given by its log on the same scale (``-inf`` encodes a zero
    coefficient or seed).  Each side folds on the raw scale relative to a
    running scale c, the largest of ln(s) and the ln(alpha_j) folded so far.
    With x_k = ln(alpha_k) - c <= 0 and r = sqrt(W_{k+1}), where W_k is the
    inner radical from index k divided by exp(2**k * c), level k is

        r = sqrt(exp(2**k * x_k) + r).

    A coefficient above c first becomes the scale and multiplies r by
    exp(2**k * (c_old - c)); that is the radical's homogeneity.  So r starts
    at 1 (0 for a zero seed, with c at the scale floor), the level that sets
    the scale adds exp(0) = 1, and every later W is at least 1: r stays in
    [1, 2) or at 0.  Nothing overflows, and an exp that underflows, in a
    term or in a move of the scale, loses under 2**-1074 against W >= 1.  A
    fixed scale would not do: zero coefficients between a unit coefficient
    and a deep seed of 0.5 would flush 0.5 ** 2**k to 0 and give 1 for
    sqrt(1.25).

    The 2**k scalings divide by s = 2**-k, read from a table of exact powers
    of two.  For k <= 1074, s is a normal or subnormal binary64 number, so
    each quotient rounds the exactly scaled value once (a quotient past
    binary64 becomes -inf, and its exp 0).  Dividing by s, rather than
    multiplying by 2**k, which is no float past 1023, keeps x = 0 at 0 (not
    0 * inf) and scales a tiny nonzero x exactly; a zero coefficient has x
    = -inf and adds 0.  Past level 1074 a level moves the log of the
    normalized value by at most 2**-1075 * ln 2, which rounds to 0, so such
    a level only keeps the larger of its pair; the fold takes that maximum
    over all of them at once, as the side's starting scale with r = 1.

    Inner levels that a dominant seed swamps are skipped.  When both sides
    start at r = 1 (a positive seed, or the past-1074 maximum), let low be
    the smaller of the two starting scales.  From the innermost level
    outward, a level whose quotient t = (ln_alpha - low) / s, rounded as the
    fold rounds it, is at most -40 changes nothing on either side.  On a
    side with scale c >= low the fold computes t' = (ln_alpha - c) / s <= t,
    because rounding is monotone.  As fl(ln_alpha - low) < 0, ln_alpha lies
    below both scales, so no scale moves.  And exp(t') < 2**-54, so
    exp(t') + 1.0 rounds to 1.0 and sqrt(1.0) = 1.0: the side leaves the
    level as it entered it, and the next level sees the same state.  The
    test must be this quotient: ln_alpha <= low - 40 * 2**-k would round its
    right side back to low once 40 * 2**-k falls below half an ulp of low,
    and then skip a coefficient equal to the scale.  A zero seed skips
    nothing.

    The last step returns exp(c) * r per side, with one exp for both sides
    when their scales are equal.  The exp and the product round once each.
    The product is 0 exactly when r is, which happens only when every input
    of that side is zero: then c is the scale floor and exp(c) is 0 too.

    The two seeds share one pass over ``ln_alphas``, but each side runs the
    float operations it would run alone, so each returned value depends only
    on ``ln_alphas`` and its own seed.  Returns ``(lo_value, hi_value)``;
    raises ``ValueError`` when a radical exceeds binary64.
    """
    if not (ln_lo_seed < _INF and ln_hi_seed < _INF):  # a NaN or +inf seed
        raise ValueError(f"seed logs must lie in [-inf, inf), got {ln_lo_seed} and {ln_hi_seed}")
    if not sum(ln_alphas) < _INF:  # a NaN or +inf term, or a sum past binary64
        for k, ln_alpha in enumerate(ln_alphas, start=1):
            if not ln_alpha < _INF:
                raise ValueError(f"ln alpha at index {k} must lie in [-inf, inf), got {ln_alpha}")
    scale_lo, r_lo = (ln_lo_seed, 1.0) if ln_lo_seed > -_INF else (_SCALE_FLOOR_LOG, 0.0)
    scale_hi, r_hi = (ln_hi_seed, 1.0) if ln_hi_seed > -_INF else (_SCALE_FLOOR_LOG, 0.0)
    n = len(ln_alphas)
    if n > _DEEPEST_LEVEL:  # levels that only keep the larger of their pair
        deep = max(ln_alphas[_DEEPEST_LEVEL:])
        if deep > scale_lo:
            scale_lo, r_lo = deep, 1.0
        if deep > scale_hi:
            scale_hi, r_hi = deep, 1.0
        n = _DEEPEST_LEVEL
    if r_lo == r_hi == 1.0:  # inner levels that leave both sides at r = 1
        low = scale_lo if scale_lo < scale_hi else scale_hi
        while n and (ln_alphas[n - 1] - low) / _INV_POW2[n] <= -40.0:
            n -= 1
    if n < len(ln_alphas):
        ln_alphas = ln_alphas[:n]
    exp, sqrt = math.exp, math.sqrt
    for ln_alpha, s in zip(reversed(ln_alphas), _INV_POW2[n:0:-1]):
        # per side: a coefficient above the scale becomes the scale, and r moves with it
        if ln_alpha > scale_lo:
            r_lo *= exp((scale_lo - ln_alpha) / s)
            scale_lo = ln_alpha
        r_lo = sqrt(exp((ln_alpha - scale_lo) / s) + r_lo)
        if ln_alpha > scale_hi:
            r_hi *= exp((scale_hi - ln_alpha) / s)
            scale_hi = ln_alpha
        r_hi = sqrt(exp((ln_alpha - scale_hi) / s) + r_hi)
    try:
        exp_lo = exp(scale_lo)
        lo, hi = exp_lo * r_lo, (exp_lo if scale_hi == scale_lo else exp(scale_hi)) * r_hi
    except OverflowError:
        lo = hi = _INF
    if lo == _INF or hi == _INF:
        raise ValueError("the nested radical exceeds binary64 (about 1.8e308)")
    return lo, hi
