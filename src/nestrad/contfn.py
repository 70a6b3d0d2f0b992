"""Continued functions h(t_1 + h(t_2 + ...)), enclosed between the tail's two seeds.

Let h be non-decreasing on [0, inf) with a finite ceiling, its supremum, and
F_n(s) = h(t_1 + h(t_2 + ... h(t_n + s))) the fold of the first n terms over
the seed s.  Whatever non-negative terms follow t_n, the tail value
T = h(t_{n+1} + ...) lies in [h(0), ceiling], so the limit F_n(T) lies in
[F_n(h(0)), F_n(ceiling)].  These intervals are nested in n, as
F_{n+1}(s) = F_n(h(t_{n+1} + s)) and h(0) <= h(t_{n+1} + s) <= ceiling.
The gap between the two folds is the enclosure's ``analytic_width_bound``.

For concave h with h(0) = 0, such as arctan, h(x + d) - h(x) <= h(d) for
x, d >= 0, so by induction F_n(c) - F_n(0) <= h^(n)(c), the n-fold iterate
of h from c.  The gap is never wider than the iterated-ceiling bound
h^(n)(ceiling), which for arctan decays only like sqrt(3 / (2n)), and equals
it when every term is 0.

Floating-point policy: the one of :mod:`nestrad.kappa`, applied by the same
helper: 16 * n ulp per side, n the depth, and ``fp_slack`` of 2.5 pads.  Its
half pad of evaluation noise rests on the accuracy budget of
:class:`nestrad.nested.OuterFunction`: a level adds at most 1 ulp for h and
half an ulp for the addition, a relative error in the argument passes
through h at most unchanged, and each seed is within 1 ulp, so each fold is
within (1.5 * n + 1) * 2**-52 relative, at most (3 * n + 2) ulp, of exact.

Floating-point floor.  No enclosure at depth n' >= n >= 2 is narrower than
the floor F(n) of :mod:`nestrad.kappa`, taken at the lower end lo >=
2**-1022 of an enclosure already evaluated.  From the budget: the exact
folds at n' are ordered, F_n'(h(0)) <= F_n'(ceiling), and each fold as
evaluated is within (3 * n' + 2) ulp(M) of its own, M the larger fold.  So
hi_raw - lo_raw >= -(6 * n' + 4) ulp(M), and with the padding arithmetic
of the kappa floor proof the width is at least 2 * pad - (6 * n' + 5)
ulp(M) = (26 * n' - 5) ulp(M) >= (24 * n' - 1) ulp(M) = 1.5 * pad -
ulp(M), as n' >= 2 (a lo clamped at 0 leaves a width of at least hi_raw,
far above F).  The nesting in n bounds the deeper fold from below: the
exact lower fold rises with n, lo lies below its own fold, and every fold
is under 2**-22 relative from exact for n' below 2**29, so m = lo * (1 -
2**-20) <= M.  Hence width(n') >= (24 * n' - 1) ulp(M) >= (24 * n - 1)
ulp(m) = F(n).  So :func:`cf_limit` stops doubling, with ``fp_floor``, once
F at the next doubling depth exceeds the narrowest width found: no deeper
enclosure could replace it, and none can reach tol.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._record import Record
from .kappa import KappaResult, _fp_floor, _padded
from .nested import Enclosure, OuterFunction, nested_eval

__all__ = ["ContinuedSpec", "cf_limit"]


class ContinuedSpec(Record):
    """Outer function plus its terms, stored as a tuple of floats, each finite and >= 0."""

    __slots__ = ("h", "terms")

    def __init__(self, h: OuterFunction, terms: Iterable[float]):
        terms = tuple(float(t) for t in terms)
        for term in terms:
            if term < 0.0 or not math.isfinite(term):
                raise ValueError(f"continued-function terms must be finite and >= 0, got {term}")
        self._set_h(self, h)
        self._set_terms(self, terms)


def cf_limit(spec: ContinuedSpec, tol: float, depth_cap: int | None = None) -> KappaResult:
    """Shallowest two-seed enclosure with width <= tol, padded by the module docstring's policy.

    Doubles the depth (1, 2, 4, ..., up to the last term or the depth cap)
    until an enclosure is within tol, then bisects below it, so the depth d
    returned has width(d) <= tol < width(d - 1) or d = 1.  Unconverged, it
    returns the narrowest enclosure found with stop reason
    ``tail_exhausted`` (the terms ran out), ``depth_cap``, or ``fp_floor``:
    the floor of the module docstring at the next doubling depth exceeds
    that enclosure's width, so no deeper one is narrower or within tol.  It
    still holds whatever terms follow.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    h, terms = spec.h, spec.terms
    if not math.isfinite(h.ceiling):
        raise ValueError(f"outer function {h.label!r} needs a finite ceiling")
    deepest = len(terms) if depth_cap is None else min(depth_cap, len(terms))
    if deepest < 1:
        raise ValueError("no terms available")
    seeds = (h.eval(0.0), h.ceiling)

    def enclosure(depth: int) -> Enclosure:
        lo_raw, hi_raw = (nested_eval(h, terms[:depth], seed) for seed in seeds)
        return _padded(lo_raw, hi_raw, depth, hi_raw - lo_raw if hi_raw > lo_raw else 0.0)

    bad, found = 0, enclosure(1)
    best = found
    while found.width > tol:
        if found.depth == deepest:
            return KappaResult(best, "tail_exhausted" if deepest == len(terms) else "depth_cap")
        depth = min(2 * found.depth, deepest)
        # no enclosure this deep or deeper beats best (the floor, module docstring)
        if _fp_floor(depth, best.lo) > best.width:
            return KappaResult(best, "fp_floor")
        bad, found = found.depth, enclosure(depth)
        if found.width < best.width:
            best = found
    while found.depth - bad > 1:  # width(bad) > tol >= width(found)
        probe = enclosure((bad + found.depth) // 2)
        if probe.width <= tol:
            found = probe
        else:
            bad = probe.depth
    return KappaResult(found, "converged")
