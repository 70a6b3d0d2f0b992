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
:class:`nestrad.nested.OuterFunction`, which ``tests/test_libm.py`` checks
for ``ARCTAN``: a level adds at most 1 ulp for h and
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
ulp(m) = F(n).  :func:`cf_limit` runs the depth search of
:mod:`nestrad.kappa` from depth 1, so it tests the floor at doubling depths
of 2 or more, and stops with ``fp_floor`` as that search does for radicals:
once F at the next doubling depth exceeds the narrowest width found, no
deeper enclosure could replace it, and none can reach tol.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._record import Record
from .kappa import KappaResult, _padded, _search
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
    """Shallowest two-seed enclosure with width <= tol, by :mod:`nestrad.kappa`'s depth search.

    The search starts at depth 1 and runs to the last term or the depth
    cap.  The depth d returned has width(d) <= tol < width(d - 1) or d = 1,
    and every doubling depth (1, 2, 4, ...) evaluated below d is wider than
    tol.  Unconverged, it returns the narrowest enclosure found with stop
    reason ``tail_exhausted`` (the terms ran out), ``depth_cap`` or
    ``fp_floor`` (the floor of the module docstring), as
    :func:`nestrad.kappa.kappa_limit` does.  It still holds whatever terms
    follow.
    """
    if not math.isfinite(spec.h.ceiling):
        raise ValueError(f"outer function {spec.h.label!r} needs a finite ceiling")
    if depth_cap is not None and depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
    count = len(spec.terms)
    if count < 1:
        raise ValueError("no terms available")
    deepest = count if depth_cap is None else min(depth_cap, count)
    return _search(_enclosure, spec, tol, 1, deepest, "tail_exhausted" if deepest == count else "depth_cap")


def _enclosure(spec: ContinuedSpec, depth: int) -> Enclosure:
    """The folds of the first ``depth`` terms from the seeds h(0) and the ceiling, padded."""
    h, terms = spec.h, spec.terms
    lo_raw, hi_raw = (nested_eval(h, terms[:depth], seed) for seed in (h.eval(0.0), h.ceiling))
    return _padded(lo_raw, hi_raw, depth, hi_raw - lo_raw if hi_raw > lo_raw else 0.0)
