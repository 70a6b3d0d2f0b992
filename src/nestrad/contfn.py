"""Continued functions f(A + f(B + f(C + ...))) with iterated-ceiling bounds.

For a non-decreasing concave f with f(0) = 0 and a finite ceiling (the
supremum of f over [0, inf]), truncating after n observed terms
underestimates the limit by at most the n-fold iterate of f starting from
the ceiling: driving the observed terms to zero only amplifies the tail's
influence, and what remains is f applied n times to the largest possible
tail.  For arctan the ceiling is pi/2, so the depth-n error bound is the
(n-1)-fold arctan iterate of pi/2, which decays like sqrt(3 / (2n)).

Functions with f(0) > 0 are rejected: without a fixed point at zero the
one-sided bound above does not collapse, and the two-sided variant is out
of scope.

Floating-point policy: the one of :mod:`nestrad.kappa`, applied by the same
helper.  [estimate, estimate + bound] is padded outward by 16 * n ulp per
side, n the depth, and ``fp_slack`` records 2.5 pads.  The half pad it
budgets for evaluation noise assumes, for arctan, at most 1 ulp per atan
and 0.5 ulp per addition.  atan's slope is at most 1, and being concave with
atan(0) = 0 it scales a relative error in its argument by at most 1, so
errors never grow from level to level: the estimate and the iterated bound
are each within 1.5 * n * 2**-52 relative, at most 3 * n ulp, of their exact
values, and the sum estimate + bound rounds by half an ulp more.  A
caller-supplied f carries the same obligation (:class:`OuterFunction`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._record import Record
from .kappa import KappaResult, _fp_pad, _padded
from .nested import OuterFunction, nested_eval

__all__ = ["ContinuedSpec", "cf_eval", "cf_limit"]

# Error bounds are found by literal iteration of the outer function; this
# caps the walk for tolerances the iterates cannot reach in bounded time.
ITERATION_LIMIT = 10**7


def _require_bounded(h: OuterFunction) -> None:
    at_zero = h.eval(0.0)
    if at_zero != 0.0:
        raise ValueError(
            f"outer function {h.label!r} has value {at_zero} at 0; "
            "error bounds need a fixed point at zero"
        )
    if not math.isfinite(h.ceiling):
        raise ValueError(f"outer function {h.label!r} needs a finite ceiling")


class ContinuedSpec(Record):
    """Outer function plus its terms; any iterable of terms is stored as a tuple of floats."""

    __slots__ = ("h", "terms")

    def __init__(self, h: OuterFunction, terms: Iterable[float]):
        self._set_h(self, h)
        self._set_terms(self, tuple(float(t) for t in terms))


def cf_eval(spec: ContinuedSpec, n: int) -> float:
    """Depth-n lower estimate: the fold over the first n terms with seed 0."""
    if not 0 <= n <= len(spec.terms):
        raise ValueError(f"depth {n} exceeds the {len(spec.terms)} available terms")
    return nested_eval(spec.h, spec.terms[:n], 0.0)


def cf_limit(spec: ContinuedSpec, tol: float, depth_cap: int | None = None) -> KappaResult:
    """Enclosure at the shallowest depth whose error bound is within tol.

    Walks the iterated bound down until it plus both pads passes tol,
    evaluates the fold there, and returns [estimate, estimate + bound]
    padded by the module docstring's policy.  The pads are taken at
    ceiling + bound, which is at least estimate + bound as the estimate never
    exceeds the ceiling, so a converged width is within tol.  If the available
    terms, the depth cap, or the iteration limit run out first, the result
    carries ``converged=False`` with stop reason ``tail_exhausted`` (the
    terms ran out) or ``depth_cap`` (callers inspect the flag; the partial
    enclosure is still valid for the truncated stream).
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    _require_bounded(spec.h)
    deepest = len(spec.terms) if depth_cap is None else min(depth_cap, len(spec.terms))
    deepest = min(deepest, ITERATION_LIMIT)
    if deepest < 1:
        raise ValueError("no terms available")
    h = spec.h
    depth = 1
    bound = h.ceiling
    while bound + 2.0 * _fp_pad(depth, h.ceiling + bound) > tol and depth < deepest:
        bound = h.eval(bound)
        depth += 1
    estimate = cf_eval(spec, depth)
    enclosure = _padded(estimate, estimate + bound, depth, bound)
    if bound + 2.0 * _fp_pad(depth, h.ceiling + bound) <= tol:
        return KappaResult(enclosure, "converged")
    return KappaResult(enclosure, "tail_exhausted" if depth == len(spec.terms) else "depth_cap")
