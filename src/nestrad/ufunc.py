"""The golden-body transfinite radical U and its inverse.

U(r) is the limit of r, sqrt(1 + r**2), sqrt(1 + sqrt(1 + r**4)), ...: an
all-ones radical whose coefficient sequence carries one extra value r past
every finite index.  It is constant at phi on [0, 1] (the transfinite term
washes out), strictly increasing and Lipschitz-1 on [1, inf), and satisfies
r < U(r) <= r * phi there, which brackets the inverse.

Evaluation reuses the enclosure engine on a spec with an omega tail;
inversion is bisection on [y/phi, y] driven by enclosure comparisons, since
no derivative of U is available.
"""

from __future__ import annotations

import math

from .kappa import DEFAULT_DEPTH_CAP, PHI, KappaResult, kappa_limit
from .nested import Enclosure
from .seqspec import OmegaTail, SequenceSpec

__all__ = ["u_spec", "u_eval", "u_inverse", "u_table"]


def u_spec(r: float) -> SequenceSpec:
    """Coefficient sequence of U(r): all ones plus r at the transfinite index."""
    return SequenceSpec((), OmegaTail(float(r)), None)


def u_eval(r: float, tol: float = 1e-9, depth_cap: int = DEFAULT_DEPTH_CAP) -> Enclosure:
    """Enclosure of U(r) with width <= tol."""
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    result: KappaResult = kappa_limit(u_spec(r), tol, depth_cap)
    if not result.converged:
        raise RuntimeError(
            f"U({r}) did not reach width {tol} within depth {depth_cap}; "
            f"best width {result.enclosure.width}"
        )
    return result.enclosure


def u_inverse(y: float, tol: float = 1e-6) -> float:
    """r >= 1 with |U(r) - y| <= tol, for y >= phi.

    Values in [phi - tol, phi] clamp to 1; below that the equation has no
    solution since U([1, inf)) = [phi, inf).  The root is bisected inside
    [y/phi, y]: U(y/phi) <= y because U(r) <= r*phi, and U(y) > y.  Each
    probe evaluates U to width tol/4 so an ambiguous enclosure (one that
    straddles y) already pins U(mid) within tolerance.
    """
    if not (math.isfinite(y) and tol > 0.0):
        raise ValueError(f"need finite y and tol > 0, got y={y}, tol={tol}")
    if y < PHI - tol:
        raise ValueError(f"y={y} is below U(1)={PHI}; no r >= 1 maps to it")
    if y <= PHI:
        return 1.0
    low, high = max(1.0, y / PHI), y
    budget = math.ceil(math.log2(max((high - low) / tol, 2.0))) + 8
    for _ in range(budget):
        if high - low <= 0.5 * tol:
            break
        mid = 0.5 * (low + high)
        enclosure = u_eval(mid, 0.25 * tol)
        if enclosure.lo > y:
            high = mid
        elif enclosure.hi < y:
            low = mid
        else:
            return mid
    # U is Lipschitz-1, so a bracket of width tol/2 pins U within tol.
    return 0.5 * (low + high)


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
