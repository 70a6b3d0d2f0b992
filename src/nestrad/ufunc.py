"""The golden-body transfinite radical U and its inverse.

U(r) is the limit of r, sqrt(1 + r**2), sqrt(1 + sqrt(1 + r**4)), ...: an
all-ones radical whose coefficient sequence carries one extra value r past
every finite index.  It is constant at phi on [0, 1] (the transfinite term
washes out), strictly increasing and Lipschitz-1 on [1, inf), and satisfies
r < U(r) <= r * phi there, which brackets the inverse.

Evaluation reuses the enclosure engine on a spec with an omega tail.
Inversion bisects that bracket, deciding each step by an enclosure of U(mid)
deepened only until it excludes y, so the bracket it keeps is certified.
"""

from __future__ import annotations

import math

from .kappa import DEFAULT_DEPTH_CAP, PHI, kappa_enclosure, kappa_limit
from .nested import Enclosure
from .seqspec import OmegaTail, SequenceSpec

__all__ = ["u_spec", "u_eval", "u_inverse", "u_table"]


def u_spec(r: float) -> SequenceSpec:
    """Coefficient sequence of U(r): all ones plus r at the transfinite index."""
    return SequenceSpec((), OmegaTail(float(r)), None)


def u_eval(
    r: float, tol: float = 1e-9, depth_cap: int = DEFAULT_DEPTH_CAP, *, exclude: float | None = None
) -> Enclosure:
    """Enclosure of U(r) with width <= tol, at the shallowest such depth.

    With ``exclude``, the depth instead doubles from 4 and stops at the
    first enclosure of width <= tol or with ``exclude`` strictly outside,
    so the width may exceed tol.  Raises RuntimeError when neither happens
    within ``depth_cap``.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    if exclude is None:
        result = kappa_limit(u_spec(r), tol, depth_cap)
        enclosure, done = result.enclosure, result.converged
        best = enclosure.width
    else:
        spec, depth, best = u_spec(r), min(4, depth_cap), math.inf
        while True:
            enclosure = kappa_enclosure(spec, depth)
            best = min(best, enclosure.width)
            done = enclosure.width <= tol or not enclosure.lo <= exclude <= enclosure.hi
            if done or depth >= depth_cap:
                break
            depth = min(2 * depth, depth_cap)
    if not done:
        raise RuntimeError(
            f"U({r}) did not reach width {tol} within depth {depth_cap}; "
            f"best width {best}"
        )
    return enclosure


def _u_bracket(y: float, tol: float, depth_cap: int, ties_below: bool) -> tuple[float, float]:
    """Bisection bracket (r_lo, r_hi) of U^-1(y), y > phi, with r_hi - r_lo <= tol/2.

    U(r_hi) > y is certified: r_hi is y or a probe enclosed above y.  r_lo
    is max(1, y/phi) (U(r) <= r*phi) or a probe enclosed below y.  A tie, a
    probe still holding y at width <= tol/4, ends the search as (mid, mid),
    or with ``ties_below`` becomes r_lo, which then has U(r_lo) < y + tol/4.
    """
    r_lo, r_hi = max(1.0, y / PHI), y
    while r_hi - r_lo > 0.5 * tol:
        if math.ulp(r_lo) > 0.5 * tol:  # no later bracket or tie can be that narrow
            raise RuntimeError(
                f"U^-1({y}) cannot be bracketed to {tol}: floats near {r_lo} are {math.ulp(r_lo)} apart"
            )
        mid = 0.5 * r_lo + 0.5 * r_hi
        enclosure = u_eval(mid, 0.25 * tol, depth_cap, exclude=y)
        if enclosure.lo > y:
            r_hi = mid
        elif enclosure.hi < y or ties_below:
            r_lo = mid
        else:
            return mid, mid
    return r_lo, r_hi


def u_inverse(y: float, tol: float = 1e-6, depth_cap: int = DEFAULT_DEPTH_CAP) -> float:
    """r >= 1 with |U(r) - y| <= tol, for y >= phi.

    Values in [phi - tol, phi] clamp to 1; below that the equation has no
    solution since U([1, inf)) = [phi, inf).  Otherwise r is a bisection
    probe whose enclosure of U holds y at width <= tol/4, or the midpoint
    of a certified bracket U(r_lo) < y < U(r_hi) of width <= tol/2 (U is
    Lipschitz-1).  Each probe deepens its enclosure, up to ``depth_cap``,
    only until it excludes y.  Raises RuntimeError when a probe reaches
    ``depth_cap`` undecided at width > tol/4, or when floats near the root
    are more than tol/2 apart (y = 1e300 with tol = 1e-6).
    """
    if not (math.isfinite(y) and tol > 0.0):
        raise ValueError(f"need finite y and tol > 0, got y={y}, tol={tol}")
    if y < PHI - tol:
        raise ValueError(f"y={y} is below U(1)={PHI}; no r >= 1 maps to it")
    if y <= PHI:
        return 1.0
    r_lo, r_hi = _u_bracket(y, tol, depth_cap, ties_below=False)
    return 0.5 * r_lo + 0.5 * r_hi


def u_table(
    r_min: float, r_max: float, count: int, tol: float = 1e-9, depth_cap: int = DEFAULT_DEPTH_CAP
) -> list[tuple[float, float, float]]:
    """Uniform samples (r, U_lo, U_hi) on [r_min, r_max], each from :func:`u_eval`."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not r_min <= r_max:
        raise ValueError(f"need r_min <= r_max, got {r_min} > {r_max}")
    rows = []
    for i in range(count):
        r = r_min + (r_max - r_min) * i / (count - 1)
        enclosure = u_eval(r, tol, depth_cap)
        rows.append((r, enclosure.lo, enclosure.hi))
    return rows
