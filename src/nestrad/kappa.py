"""Certified enclosures for nested and transfinite radicals.

The normalized-limit operator kappa maps a coefficient sequence (alpha_k)
to the limit of the approximants

    alpha_omega,
    sqrt(alpha_1**2 + alpha_omega**2),
    sqrt(alpha_1**2 + sqrt(alpha_2**4 + alpha_omega**4)), ...

where an optional transfinite coefficient alpha_omega enters as the
innermost seed of every truncation.  For a sequence with per-depth seed
bounds ``(lower_seed, upper_cap)`` the enclosure at depth n is

    lo = fold(prefix 1..n-1, seed lower_seed)
    hi = fold(prefix 1..n-1, seed upper_cap * phi ** 2**-(n-1))

The golden boost on the cap is what makes hi an upper bound: a constant
tail at the cap folds to exactly cap * phi, and phi ** 2**-(n-1) is that
value pulled back to the seed scale at depth n.  The width obeys

    hi - lo <= upper_cap * phi ** 2**-(n-1) - lower_seed,

which goes to zero whenever the bounds tighten onto the tail supremum, so
:func:`kappa_limit` can search for the shallowest adequate depth.

Floating-point policy: enclosures are padded outward by 16 * depth ulp per
side after evaluation, and the recorded ``fp_slack`` additionally allows
8 * depth ulp of evaluation noise.  The soundness contract is "valid in
exact arithmetic, slack-widened in binary64"; there is no directed
rounding.

Everything here is pure; results are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .nested import Enclosure, sqrt_nested_scaled
from .seqspec import SequenceSpec

__all__ = [
    "PHI",
    "LN_PHI",
    "DEFAULT_DEPTH_CAP",
    "phi_pow",
    "KappaResult",
    "kappa_enclosure",
    "kappa_limit",
]

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LN_PHI = math.log(PHI)

# Beyond depth 256 the width bound phi**2**-n - 1 is far below binary64
# resolution, so deeper probing cannot tighten anything.
DEFAULT_DEPTH_CAP = 256


def phi_pow(n: int) -> float:
    """phi ** 2**-n, computed as exp(ln(phi) * 2**-n)."""
    if n < 0:
        raise ValueError(f"exponent index must be >= 0, got {n}")
    return math.exp(math.ldexp(LN_PHI, -n))


@dataclass(frozen=True)
class KappaResult:
    """Outcome of a tolerance-driven evaluation."""

    enclosure: Enclosure
    converged: bool


def kappa_enclosure(spec: SequenceSpec, depth: int) -> Enclosure:
    """Two-sided enclosure of the radical at the given depth.

    Uses prefix coefficients 1..depth-1 and the spec's seed bounds at
    ``depth``.  For specs whose tail cannot extend the coefficient sequence
    (cap tables), the depth is clamped to ``prefix length + 1``; the
    returned enclosure reports the depth actually used.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    limit = spec.max_depth()
    if limit is not None:
        depth = min(depth, limit)
    lower, upper = spec.tail_bounds(depth)
    if not (math.isfinite(lower) and math.isfinite(upper) and lower >= 0.0 and upper >= 0.0):
        raise ValueError(f"tail bounds at depth {depth} must be finite and >= 0, got ({lower}, {upper})")
    hi_seed = upper * phi_pow(depth - 1)
    if lower > hi_seed * (1.0 + 1e-12):
        raise ValueError(
            f"tail bounds at depth {depth} cannot bracket: lower seed {lower} exceeds "
            f"golden-boosted cap {hi_seed}"
        )
    ln_alphas = spec.terms_lograw(depth - 1)
    lo_raw = sqrt_nested_scaled(ln_alphas, lower)
    hi_raw = sqrt_nested_scaled(ln_alphas, max(hi_seed, lower))
    # an identically-zero fold is exact, so it needs no outward padding
    scale_ulp = math.ulp(max(abs(hi_raw), abs(lo_raw))) if hi_raw != 0.0 else 0.0
    pad = 16.0 * depth * scale_ulp
    lo = max(0.0, lo_raw - pad)
    hi = max(hi_raw + pad, lo)
    analytic = max(0.0, hi_seed - lower)
    fp_slack = 2.0 * pad + 8.0 * depth * scale_ulp
    return Enclosure(lo, hi, depth, analytic, fp_slack)


def kappa_limit(
    spec: SequenceSpec, tol: float, depth_cap: int = DEFAULT_DEPTH_CAP
) -> KappaResult:
    """Shallowest enclosure with width <= tol, probing depths geometrically.

    Doubles the probe depth (4, 8, 16, ...) until the width is within
    tolerance, then refines to the smallest adequate depth by bisection.
    When ``depth_cap`` is exhausted, or the spec's tail cannot extend any
    deeper, the narrowest enclosure found is returned with
    ``converged=False`` rather than raising: a partial enclosure is still
    certified.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
    best: Enclosure | None = None
    previous = 0
    probe = min(4, depth_cap)
    while True:
        enclosure = kappa_enclosure(spec, probe)
        if best is None or enclosure.width < best.width:
            best = enclosure
        if enclosure.width <= tol:
            low, high = previous + 1, enclosure.depth
            chosen = enclosure
            while low < high:
                mid = (low + high) // 2
                candidate = kappa_enclosure(spec, mid)
                if candidate.width <= tol:
                    high, chosen = mid, candidate
                else:
                    low = mid + 1
            return KappaResult(chosen, True)
        if enclosure.depth < probe or probe >= depth_cap:
            return KappaResult(best, False)
        previous, probe = probe, min(probe * 2, depth_cap)

