"""The golden-body transfinite radical U and its inverse.

U(r) is the limit of r, sqrt(1 + r**2), sqrt(1 + sqrt(1 + r**4)), ...: an
all-ones radical whose coefficient sequence carries one extra value r past
every finite index.  It is constant at phi on [0, 1] (the transfinite term
washes out), strictly increasing and Lipschitz-1 on [1, inf), and satisfies
r < U(r) <= r * phi there, which brackets the inverse.

Evaluation reuses the enclosure engine on a spec with an omega tail.

Inversion predicts the root, then confirms it.  For r >= 1 the depth-n
enclosure of U(r) is, before padding, [F_n(r), F_n(r * c_n)] with c_n =
phi ** 2**-(n-1), where F_n folds n - 1 ones over the seed: F_1(s) = s and
F_n(s)**2 = 1 + F_{n-1}(s**2).  F_n inverts in closed form by peeling
v_{k+1} = v_k * v_k - 1 from v_1 = y on the raw scale, and F_n^-1(y) =
v_n ** 2**-(n-1).  Past v_k = 2**26, v * v - 1 and v * v agree to
2**-52, so the later peels only square, and the peel returns
exp(2**-(k-1) * ln v_k) from the last level k it reached.  In exact
arithmetic R = F_n^-1(y) puts U^-1(y) in [R / c_n, R], as F_n(R) = y <=
U(R) and U(R / c_n) <= F_n(R).  That width does not depend on U's slope
(about 1e-4 near r = 1), so n follows from y and tol alone, clamped to
the depth cap.  The float peel only chooses where to look: every end
and every answer is certified by a measured enclosure, as a bisection
probe's is.

* ``u_inverse`` evaluates one depth-n enclosure at the middle of [R / c_n,
  R]; it normally holds y at width <= tol/4, a tie.
* ``sup_enclosure`` evaluates F_n^-1(y + pad + noise), expected above y,
  clamped to the float below y.  Unclamped, the upper end of its enclosure
  normally shows U(r_hi) - y < 3 tol/4 for the end r_hi that it leaves
  (``_u_bracket``).  Clamped, for y above about 2.5e6, where the root lies
  within the depth-n pads of y, it ties and leaves the bracket (prev(y),
  y).  Either way this one enclosure ends the search.

The predicted probe is a single ``kappa_enclosure`` call at depth n.

Fallback.  A predicted probe that lies outside the bracket, or decides
nothing at its depth, is dropped, and certified bisection goes on from the
ends found so far.  Its probes deepen from depth 4 until they exclude y or
tie: near the pad floor a shallow enclosure's lower end is often sharper
than the predicted depth's, as its pad is smaller, so starting them at the
predicted depth can leave a probe undecided at every depth (y = 5 with tol
= 3e-12).  A probe at r that excludes y moves its end past r by the
Lipschitz-1 margin: lo > y gives U(r - (lo - y)) >= U(r) - (lo - y) >= y,
and hi < y gives U(r + (y - hi)) <= y.  Both margins are exact by
Sterbenz (y / 2 < hi and lo < 2 * y, as U lies in [r, r * phi] and probes
in [y / phi, y]), and the moved end is rounded outward by one
``nextafter``.

Refusals.  RuntimeError, which the CLI reports with exit 2, means that no
answer could be certified: floats near the lower end are more than tol/2
apart (checked ahead of every probe; y = 1e300 with tol = 1e-6), or a
bisection probe reached the depth cap undecided at width > tol/4 (y = 1e8
with tol = 1e-6, where every enclosure near the root is padded wider than
that).
"""

from __future__ import annotations

import math

from .kappa import DEFAULT_DEPTH_CAP, LN_PHI, PHI, _fp_pad, kappa_enclosure, kappa_limit, phi_pow
from .nested import Enclosure
from .seqspec import OmegaTail, SequenceSpec

__all__ = ["u_spec", "u_eval", "u_inverse", "u_table"]


def u_spec(r: float) -> SequenceSpec:
    """Coefficient sequence of U(r): all ones plus r at the transfinite index."""
    return SequenceSpec((), OmegaTail(float(r)))


def u_eval(r: float, tol: float = 1e-9, depth_cap: int = DEFAULT_DEPTH_CAP) -> Enclosure:
    """Enclosure of U(r) with width <= tol, at the shallowest such depth.

    Raises RuntimeError when no enclosure within ``depth_cap`` is that narrow.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    result = kappa_limit(u_spec(r), tol, depth_cap)
    if not result.converged:
        raise RuntimeError(
            f"U({r}) did not reach width {tol} within depth {depth_cap}; "
            f"best width {result.enclosure.width}"
        )
    return result.enclosure


def _fold_inverse(y: float, depth: int) -> float:
    """F_n^-1(y) for n = depth >= 1 in floating point: the seed whose depth-n lower fold is y.

    Peels on the raw scale (module docstring).  Returns 1 when a peel
    reaches v <= 1 (y at or below F_n(1)) and inf for y = inf.
    """
    v = y
    for k in range(1, depth):
        if v > 2.0**26:  # the later peels only square
            break
        if v <= 1.0:
            return 1.0
        v = v * v - 1.0
    else:
        k = depth
    return math.exp(math.ldexp(math.log(v), 1 - k))


def _probe_depth(y: float, tol: float, depth_cap: int) -> int:
    """Depth of the predicted probe: its bracket and pads fit within tol/4.

    The shallowest n with y * (c_n - 1) <= tol/8 (R <= y), deepened while
    the predicted width y * (c_n - 1) + 2 * pad(n, y) exceeds tol/4 and
    deepening narrows it; clamped to [min(4, depth_cap), depth_cap].
    """
    pads_per_level = 2.0 * _fp_pad(1, y)  # n times this is 2 * pad(n, y) = 32 * n * ulp(y), exactly
    depth = max(1, 1 + math.ceil(math.log2(LN_PHI / math.log1p(0.125 * tol / y))))
    width = y * math.expm1(math.ldexp(LN_PHI, 1 - depth)) + depth * pads_per_level
    while depth < depth_cap and width > 0.25 * tol:
        deeper = y * math.expm1(math.ldexp(LN_PHI, -depth)) + (depth + 1) * pads_per_level
        if not deeper < width:
            break
        depth, width = depth + 1, deeper
    return max(min(4, depth_cap), min(depth, depth_cap))


def _predicted_probe(y: float, depth: int, ties_below: bool) -> float:
    """Where to probe U at ``depth`` before bisecting (module docstring)."""
    if not ties_below:
        root = _fold_inverse(y, depth)
        return 0.5 * (root / phi_pow(depth - 1)) + 0.5 * root
    pad = _fp_pad(depth, y * phi_pow(depth - 1))
    # bounds |F_n(F_n^-1(t)) - t| as evaluated: measured at most 0.41 of it for y from 1.6 to 1e308
    noise = 4.0 * math.ulp(y) * max(1.0, math.log(y))
    return min(_fold_inverse(y + pad + noise, depth), math.nextafter(y, 0.0))


def _bisection_probe(r: float, y: float, tol: float, depth_cap: int) -> Enclosure:
    """First enclosure of U(r) at depths 4, 8, ... <= ``depth_cap`` that excludes y or is <= tol wide.

    Raises RuntimeError when the enclosure at the cap does neither.
    """
    spec, depth, best = u_spec(r), min(4, depth_cap), math.inf
    while True:
        enclosure = kappa_enclosure(spec, depth)
        best = min(best, enclosure.width)
        if enclosure.width <= tol or not enclosure.lo <= y <= enclosure.hi:
            return enclosure
        if depth >= depth_cap:
            raise RuntimeError(
                f"U({r}) did not reach width {tol} within depth {depth_cap}; best width {best}"
            )
        depth = min(2 * depth, depth_cap)


def _u_bracket(y: float, tol: float, depth_cap: int, ties_below: bool) -> tuple[float, float]:
    """Certified bracket (r_lo, r_hi) of U^-1(y), y > phi, with r_hi - r_lo <= tol/2.

    U(r_hi) >= y is certified: r_hi is y or an end left by a probe enclosed
    above y.  r_lo is max(1, y/phi) (U(r) <= r*phi) or an end left by a
    probe enclosed below y.  A tie, a probe still holding y at width <=
    tol/4, ends the search as (mid, mid).  The module docstring says how
    the probes are chosen and when RuntimeError is raised.

    ``ties_below`` serves a caller that keeps r_hi alone, and certifies
    U(r_hi) - y < 3 tol/4 for it.  A tie becomes r_lo, which then has
    U(r_lo) < y + tol/4, so a bracket ends with U(r_hi) <= U(r_lo) + tol/2
    < y + 3 tol/4 (U is Lipschitz-1).  A probe at mid enclosed in [lo, hi]
    above y ends the search at once, as (r_hi, r_hi), when the float test
    (hi - y) + max(0, r_hi - mid) <= tol/4 passes.  Proof that it certifies
    the same bound: U is increasing and Lipschitz-1 on [1, inf), so U(r_hi)
    <= U(mid) + max(0, r_hi - mid) <= hi + max(0, r_hi - mid).  The move
    rounds mid - (lo - y) <= mid to a float, which is at most mid, and
    steps it up by one ``nextafter``, so r_hi is mid or below, or mid +
    ulp(mid), and the float r_hi - mid is exact when positive.  That ulp
    is why the test holds it: the spacing check allows ulp(mid) up to 2 *
    ulp(r_lo) <= tol (mid < y < 2 * r_lo), so hi - y <= tol/4 alone would
    not bound U(r_hi) - y by 3 tol/4.  The subtraction hi - y > 0 and the
    sum each round with relative error at most 2**-53, so the exact sum is
    at most (tol/4) / (1 - 2**-53)**2 < 3 tol/4.
    """
    r_lo, r_hi = max(1.0, y / PHI), y
    depth = None  # of the predicted probe, made on the first pass
    while r_hi - r_lo > 0.5 * tol:
        if math.ulp(r_lo) > 0.5 * tol:  # no later bracket or tie can be that narrow
            raise RuntimeError(
                f"U^-1({y}) cannot be bracketed to {tol}: floats near {r_lo} are {math.ulp(r_lo)} apart"
            )
        mid = None
        if depth is None:
            # set up after the spacing check: it refuses y = 1e300 with tol = 1e-10,
            # where _probe_depth raises OverflowError (LN_PHI / log1p(tol / 8y) is inf)
            depth = _probe_depth(y, tol, depth_cap)
            mid = _predicted_probe(y, depth, ties_below)
        if mid is not None and r_lo < mid < r_hi:
            # at its depth only: if it decides nothing, no test below holds and bisection follows
            enclosure = kappa_enclosure(u_spec(mid), depth)
        else:
            mid = 0.5 * r_lo + 0.5 * r_hi
            enclosure = _bisection_probe(mid, y, 0.25 * tol, depth_cap)
        if enclosure.lo > y:
            r_hi = math.nextafter(mid - (enclosure.lo - y), math.inf)
            if ties_below and (enclosure.hi - y) + max(0.0, r_hi - mid) <= 0.25 * tol:
                return r_hi, r_hi  # U(r_hi) - y < 3 tol/4 (docstring)
        elif enclosure.hi < y:
            r_lo = math.nextafter(mid + (y - enclosure.hi), -math.inf)
        elif enclosure.width <= 0.25 * tol:
            if not ties_below:
                return mid, mid
            r_lo = mid
    return r_lo, r_hi


def u_inverse(y: float, tol: float = 1e-6, depth_cap: int = DEFAULT_DEPTH_CAP) -> float:
    """r >= 1 with |U(r) - y| <= tol, for y >= phi.

    Values in [phi - tol, phi] clamp to 1; below that the equation has no
    solution since U([1, inf)) = [phi, inf).  Otherwise r is a probe whose
    enclosure of U holds y at width <= tol/4, or the midpoint of a certified
    bracket U(r_lo) <= y <= U(r_hi) of width <= tol/2 (U is Lipschitz-1).
    Raises RuntimeError when no answer can be certified (the refusals of
    the module docstring).
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
    """Uniform samples (r, U_lo, U_hi) from exactly r_min to exactly r_max, each from :func:`u_eval`.

    Sample i is r_min + (r_max - r_min) * i / (count - 1); a grid so wide
    that the product overflows divides first.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not r_min <= r_max:
        raise ValueError(f"need r_min <= r_max, got {r_min} > {r_max}")
    span, last = r_max - r_min, count - 1
    wide = span * (last - 1) == math.inf  # the largest product the samples before r_max form
    rows = []
    for i in range(count):
        r = r_max if i == last else r_min + (span / last * i if wide else span * i / last)
        enclosure = u_eval(r, tol, depth_cap)
        rows.append((r, enclosure.lo, enclosure.hi))
    return rows
