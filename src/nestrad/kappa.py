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

Floating-point policy: with lo_raw <= hi_raw the two folds as evaluated,
enclosures are padded outward by pad(n) = 16 * n * ulp(hi_raw) per side
(no pad when hi_raw is 0, which is exact), and the recorded ``fp_slack``
additionally allows 8 * n ulp of evaluation noise.  The soundness contract
is "valid in exact arithmetic, slack-widened in binary64"; there is no
directed rounding.

Depth search.  :func:`kappa_limit` evaluates depths 4 and 8, fits a
geometric rate to their widths, and evaluates the depth d where that rate
reaches tol, together with d - 1.  If width(d) <= tol < width(d - 1) it
returns d.  Otherwise it doubles the depth (16, 32, ...) until one is
within tol and bisects between the last two doubling depths, narrowed by
every depth already evaluated; no depth is evaluated twice.  Either way the
returned depth d satisfies width(d) <= tol < width(d - 1) (or d = 1), and
every doubling depth (4, 8, 16, ...) evaluated below d is wider than tol.
"Shallowest" means exactly this.  Widths are not monotone in depth: once
the analytic width falls below the pad, the 2 * pad(n) term grows with n.
So a depth below d may still be within tol, and the search may return a
different qualifying depth than a plain doubling would.  Where widths are
non-increasing, d is the smallest adequate depth.

Floating-point floor.  No enclosure at depth n' >= n is narrower than
F(n) = 16 * n * ulp(lo / 2), where lo >= 2**-1022 is the lower end of any
enclosure already evaluated.  Proof: the lower side pads lo_raw down by
pad(n') and the upper side pads hi_raw up by pad(n'), or lo clamps at 0
while hi >= pad(n'); either way width(n') >= pad(n').  The exact radical
lies between lo and the exact upper fold at n', and both folds carry a
relative rounding error far below 1/2, so hi_raw(n') >= lo / 2.  ulp is
non-decreasing in magnitude, hence pad(n') >= 16 * n' * ulp(lo / 2) >= F(n).
The doubling therefore stops, with stop reason ``fp_floor``, once F of the
next depth exceeds the narrowest width found: no deeper enclosure could
replace it, and none can reach tol.  The pad and F come from one helper,
so a change to the padding policy changes both.

Everything here is pure; results are immutable.
"""

from __future__ import annotations

import math
import sys
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


_STOP_REASONS = ("converged", "depth_cap", "tail_exhausted", "fp_floor")


@dataclass(frozen=True)
class KappaResult:
    """Outcome of a tolerance-driven evaluation and why its search stopped.

    ``stop_reason`` is ``converged`` (width <= tol), ``depth_cap`` (the
    depth cap was reached), ``tail_exhausted`` (the spec's tail supplies no
    deeper coefficients) or ``fp_floor`` (no deeper enclosure can be
    narrower than the one returned).
    """

    enclosure: Enclosure
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in _STOP_REASONS:
            raise ValueError(f"stop reason must be one of {_STOP_REASONS}, got {self.stop_reason!r}")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _fp_pad(depth: int, magnitude: float) -> float:
    """Outward padding, per side, of a depth-``depth`` enclosure of this size."""
    return 16.0 * depth * math.ulp(magnitude)


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
    lo_raw, hi_raw = sqrt_nested_scaled(spec.terms_lograw(depth - 1), lower, max(hi_seed, lower))
    # an identically-zero fold is exact, so it needs no outward padding
    pad = _fp_pad(depth, max(abs(hi_raw), abs(lo_raw))) if hi_raw != 0.0 else 0.0
    lo = max(0.0, lo_raw - pad)
    hi = max(hi_raw + pad, lo)
    analytic = max(0.0, hi_seed - lower)
    # both pads, plus half a pad (8 * depth ulp) of evaluation noise
    return Enclosure(lo, hi, depth, analytic, 2.5 * pad)


def kappa_limit(
    spec: SequenceSpec, tol: float, depth_cap: int = DEFAULT_DEPTH_CAP
) -> KappaResult:
    """Shallowest enclosure with width <= tol: predict the depth, then confirm it.

    Probes depths 4 and 8, fits a geometric rate to their widths and
    evaluates the predicted depth d and d - 1, unless the two pads at d
    alone would exceed tol; it returns d when width(d) <= tol < width(d - 1).
    Otherwise it doubles the probe depth (16, 32, ...) until a width is
    within tolerance and bisects down to a depth whose predecessor is not,
    reusing every depth already evaluated.  The returned depth d always has
    width(d) <= tol < width(d - 1), and every doubling depth evaluated below
    d is wider than tol.  Widths are not monotone in depth, so a shallower
    depth may still qualify; while they are non-increasing, d is the unique
    smallest adequate depth (see the module docstring).

    The search can also stop unconverged, for one of three reasons:

    * ``depth_cap``: the depth cap was probed;
    * ``tail_exhausted``: the spec's tail cannot extend any deeper (this
      wins when the cap is the same depth);
    * ``fp_floor``: the floating-point floor 16 * n * ulp(lo / 2) of the
      next doubling depth n exceeds the narrowest width found, so no deeper
      enclosure can be narrower.

    It then returns the narrowest enclosure found, with that
    ``stop_reason``, rather than raising: a partial enclosure is still
    certified.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
    tail_limit = spec.max_depth()
    limit = depth_cap if tail_limit is None else min(depth_cap, tail_limit)
    seen: dict[int, Enclosure] = {}
    best: Enclosure | None = None

    def width(depth: int) -> float:
        nonlocal best
        if depth not in seen:
            enclosure = seen[depth] = kappa_enclosure(spec, depth)
            if best is None or enclosure.width < best.width:
                best = enclosure
        return seen[depth].width

    def bisect(bad: int, good: int) -> KappaResult:
        # width(bad) > tol >= width(good); depth 0 stands for "nothing shallower"
        inside = [depth for depth in seen if bad < depth < good]
        good = min((depth for depth in inside if seen[depth].width <= tol), default=good)
        bad = max((depth for depth in inside if depth < good and seen[depth].width > tol), default=bad)
        while good - bad > 1:
            mid = (bad + 1 + good) // 2
            if width(mid) <= tol:
                good = mid
            else:
                bad = mid
        return KappaResult(seen[good], "converged")

    previous, depth = 0, min(4, limit)
    while True:
        if width(depth) <= tol:
            return bisect(previous, depth)
        if depth == 8:
            guess = _predicted_depth(seen[4].width, seen[8].width, tol, limit)
            # both sides of an enclosure carry a pad, so skip a guess the pads alone overshoot
            if guess > 8 and 2.0 * _fp_pad(guess, seen[8].hi) <= tol and width(guess) <= tol:
                return bisect(8 if width(guess - 1) <= tol else guess - 1, guess)
        if depth >= limit:
            return KappaResult(best, "tail_exhausted" if limit == tail_limit else "depth_cap")
        previous, depth = depth, min(2 * depth, limit)
        # no enclosure this deep or deeper beats best (the floor, module docstring)
        if best.lo >= sys.float_info.min and _fp_pad(depth, 0.5 * best.lo) > best.width:
            return KappaResult(best, "fp_floor")


def _predicted_depth(width_4: float, width_8: float, tol: float, limit: int) -> int:
    """Depth where widths shrinking geometrically from depth 4 to 8 reach tol.

    Returns 0 when the widths do not shrink or the depth lies past ``limit``.
    """
    rate = math.log(width_4) - math.log(width_8)
    if not rate > 0.0:
        return 0
    depth = 8.0 + 4.0 * (math.log(width_8) - math.log(tol)) / rate
    return math.ceil(depth) if depth <= limit else 0
