"""Certified enclosures for nested and transfinite radicals.

The normalized-limit operator kappa maps a coefficient sequence (alpha_k)
to the limit of the approximants

    alpha_omega,
    sqrt(alpha_1**2 + alpha_omega**2),
    sqrt(alpha_1**2 + sqrt(alpha_2**4 + alpha_omega**4)), ...

where an optional transfinite coefficient alpha_omega enters as the
innermost seed of every truncation.  For a sequence with per-depth seed
logs ``(ln_lower, ln_cap)`` the enclosure at depth n is

    lo = fold(ln alpha_1..n-1, ln seed ln_lower)
    hi = fold(ln alpha_1..n-1, ln seed ln_hi),  ln_hi = ln_cap + 2**-(n-1) * ln(phi)

The golden boost on the cap is what makes hi an upper bound: a constant
tail at the cap folds to exactly cap * phi, and the added 2**-(n-1) *
ln(phi) is that factor pulled back to the seed scale at depth n; ``LN_PHI``
exceeds ln(phi), and the rounded sum is stepped up once.  The width obeys

    hi - lo <= exp(ln_hi) - exp(ln_lower),

which goes to zero whenever the bounds tighten onto the tail supremum, so
:func:`kappa_limit` can search for the shallowest adequate depth.

Floating-point policy: with lo_raw <= hi_raw the two folds as evaluated,
enclosures are padded outward by pad(n) = 16 * n * ulp(hi_raw) per side
(no pad when hi_raw is 0, which is exact), and the recorded ``fp_slack``
additionally allows 8 * n ulp of evaluation noise.  One helper pads these
and the two folds of :func:`nestrad.contfn.cf_limit`.  The soundness
contract is "valid in exact arithmetic, slack-widened in binary64"; the
boost's one step up is the only directed rounding.

Depth search.  One search serves both limits, from depth 4 in
:func:`kappa_limit` and from depth 1 in :func:`nestrad.contfn.cf_limit`,
up to a limit: the shallowest of the depth cap, the last depth that the
tail or the terms supply and, for :func:`kappa_limit`, a spec's swamp depth
(below).  It doubles the depth; at 8 it fits a geometric rate to the widths
at 4 and 8 for the depth g where that rate reaches tol.  A g past a swamp
depth that is the limit becomes that depth, and in :func:`kappa_limit` a
tight explicit bound lowers g (the explicit-bound cap, below).  It
evaluates g unless the two pads at g alone exceed tol, and returns by one
of six paths, each with its share of the searches of the benchmark's
``families`` workload, seeds 101-110:

* confirmed (46%): width(g) <= tol < width(g - 1), and g is returned;
* overshot (6%): g - 1 is within tol too, and it bisects (8, g - 1);
* gallop up (7%): width(g) > tol, and it evaluates g + 1, g + 2, g + 4, ...
  while the pads leave room for tol, below the limit, then bisects (8, the
  first within tol);
* doubling within tol (12%): a doubling depth (4, 8, 16, ...) is within
  tol, and it bisects (the doubling depth before it, that depth);
* floor (12%): the floating-point floor (below) ends the doubling;
* limit (16%, each at a swamp depth): the doubling reaches the limit.

A bisection (a, b) has width(a) > tol >= width(b), a = 0 standing for no
shallower depth.  Each path above returns at the first depth within tol,
so a is the deepest depth already evaluated below b, and no depth is
evaluated twice.  Two probes in three go where the line through the log
widths at a and b, the model that predicted g, crosses tol; the third
halves, so at most 3 * ceil(log2(b - a)) probes are made; interpolation
alone walks one depth at a time where the log width is convex.
A probe halves also where a is 0 or width(b) is.  Widths are not monotone
in depth: once the analytic width falls below the pad, the 2 * pad(n) term
grows with n.  So a depth below the one returned may still be within tol,
and the search may return a different qualifying depth than a plain
doubling would.

Explicit-bound cap.  Write A(n) for the ``analytic_width_bound`` at
depth n, read from the seed bounds at n without folding, and S(n) = 2.5 *
pad(n, (hi(8) + tol) * (1 + 2**-20)), hi(8) the upper end of the depth-8
enclosure.  A depth n with A(n) + S(n) <= tol is within tol.  Proof: every
enclosure obeys width(n) <= A(n) + 2.5 * pad(n, M), M the larger raw fold
(the padding policy above).  With L <= H the exact folds at n and v the
radical, L <= v and H - L <= A(n) up to A's rounding, a few ulp, so H <=
v + A(n) <= hi(8) + tol, as the depth-8 enclosure contains v and A(n) <=
tol (a lower seed just above the boosted cap seeds both folds: H = L and
A(n) = 0); both raw folds lie within a relative 2**-30 of their exact ones,
and so at most 2**-30 above H (the floor's proof, below).  The factor 1 +
2**-20 covers both roundings, so M is at most the magnitude in S(n), ulp
is non-decreasing, and width(n) <= A(n) + S(n) <= tol.
The search reads A only where it is tight at depth 8: A(8) <= 4 *
width(8).  The constant 4 is measured, not derived.  A(8) / width(8) is
about 1.3 for Ramanujan's tail and 1.1 for U(2.5)'s, and about 20.6 for
golden, powertower and constant_norm:2 and 658 for constant_raw:6, whose
widths fall faster than A, which halves per level: there A reaches tol
only past g, so a read would be wasted.  Where the gate holds and g > 9,
the search reads A(g - 1); if g - 1 fits, it bisects (8, g - 1) for the
shallowest depth that fits and takes it as g.  The bisection assumes that
A + S falls with depth; where it does not, g is lowered less, never to a
depth wider than tol.  :func:`nestrad.contfn.cf_limit` reads no bound: its
``analytic_width_bound`` is the difference of its two folds, known only by
folding.

Floating-point floor.  Let lo >= 2**-1022 be the lower end of an enclosure
already evaluated and m = lo * (1 - 2**-20).  No enclosure at depth n' >= n
is narrower than

    F(n) = 1.5 * pad(n, m) - ulp(m),    pad(n, x) = 16 * n * ulp(x).

Proof, at depth n' with M = max(lo_raw, hi_raw) and pad = pad(n', M):

* The fold's relative error, |ln alpha| up to 700, gives m <= hi_raw(n').
  Write H for the exact upper fold at n' and v for the exact radical of the
  same ln(alpha_k).  The construction is valid in exact arithmetic, so
  every exact lower fold is <= v <= H.  A fold level, r = sqrt(exp(2**k *
  x) + r), rounds x = ln_alpha - c (c the running scale), its exp within
  1 ulp (the libm budget that ``tests/test_libm.py`` checks), and the sum
  and the sqrt within half an ulp each; a level that
  moves the scale, r = sqrt(1.0 + r * exp(2**k * (c - ln_alpha))), rounds
  c - ln_alpha instead, its exp, the product with r, the sum and the sqrt,
  and its own term, 1, is exact.  A level whose coefficient equals the
  scale rounds only the sum and the sqrt, with its exp or without: its x
  is +-0, its term exactly 1, and a move by exp(+-0) = 1 leaves r exact.
  An exp that two sides at one scale share rounds exactly what each side
  would round alone.  Each sqrt halves a relative error on its way out,
  so a rounded x or scale step reaches the value with the weight
  of a coefficient's log, at most 1 (homogeneity, the :mod:`nestrad.nested`
  docstring).  With |ln alpha| <= 700 every x and scale step is below
  2**11 in magnitude, so a level adds at most 2**-42 to the relative
  error, and the final step, exp(c) * r, rounds the exp and the product
  once, under 2**-50 relative.
  Levels past 1074 are folded as one maximum, which rounds nothing; an
  inner level that a side's scale swamps is skipped, which rounds nothing
  either, and a run of levels equal to the scale is read from a table of
  golden iterates, which rounds no more than running them: each leaves the
  bits that running its levels would (the
  :func:`nestrad.nested.sqrt_nested_scaled` docstring).  So the count
  only shrinks, and stops growing at 1075: a depth-n' fold has
  relative error eps <= (min(n', 1075) + 1) * 2**-41 < 2**-30 at every
  depth.  (A level with a larger |x| either carries weight below e**-700
  or pushes the radical below the least normal, where the floor is not
  used.)
  Hence lo <= (1 + eps) * v <= (1 + eps) * H <= (1 + eps) / (1 - eps) *
  hi_raw, and (1 - 2**-20) * (1 + eps) / (1 - eps) <= 1 gives m <= hi_raw.
* lo clamped at 0: width(n') >= hi >= hi_raw >= m, far above F.
* lo not clamped, lo_raw possibly above hi_raw by rounding: width(n') >=
  2 * pad - (lo_raw - hi_raw) - ulp(M).  pad is a multiple of ulp(M), so
  lo_raw - pad is exact, hi_raw + pad rounds by at most ulp(M) when it
  crosses a power of two, and hi - lo is exact (Sterbenz) unless it
  exceeds hi / 2 >= m / 2, far above F.  The folds run the same operations
  on the same ln(alpha_k) with seeds lower <= upper, so lo_raw exceeds
  hi_raw only by rounding noise, which the padding policy budgets at the
  half pad it records in ``fp_slack`` (the premise the enclosures' own
  soundness rests on).  Sides that end at one scale share its exp and round
  its product with r monotonically, so only per-level noise remains; a side
  with its own scale ends under 2 ulp from exp(c) * r, which the half pad,
  at least 8 ulp(M), covers.  So width(n') >= 1.5 * pad -
  ulp(M) = (24 * n' - 1) * ulp(M) >= (24 * n - 1) * ulp(m) = F(n), as m <=
  hi_raw <= M.

The doubling therefore stops, with stop reason ``fp_floor``, once F of the
next doubling depth exceeds the narrowest width found: no enclosure at that
depth or deeper could replace it, and none can reach tol.  Depths between
the last one evaluated and that depth are not searched, as a plain
doubling would not search them either; where the analytic width still
falls there, one of them can be narrower, though never below its own F.
The pad and F come from one helper, so a change to the padding policy
changes both.

Swamp depth.  A spec with a prefix of p coefficients finds its swamp
depth c when it is built (:func:`nestrad.seqspec._prefix_bounds`): the
least k + 1 such that the coefficient alpha_k swamps both seeds at every
depth from k + 1 on.  Let B_k be the largest of the tail's two seed logs at
depth p + 1 and the ln(alpha_j) with k < j <= p, and U_k = nextafter(B_k +
2**-k * ``LN_PHI``, +inf).  For k <= 1074, alpha_k swamps when (U_k - ln
alpha_k) / 2**-k <= -40, rounded as the fold rounds it; only a coefficient
above the tail's bounds and every later coefficient can.  Then at every
depth n >= c both folds give one value X, the same at each depth:

* Each side enters level k at a running scale of at most U_k.  The lower
  seed is at most B_k: within the prefix it is a later coefficient or the
  tail's lower seed at p + 1, and past it a tail's seed logs never exceed
  the larger one at p + 1 (the :class:`nestrad.seqspec.TailModel`
  premise).  The upper seed is the lower one or the boosted cap,
  nextafter(ln_cap(n) + 2**(1 - n) * ``LN_PHI``, +inf), which is at most
  U_k as ln_cap(n) <= B_k, 1 - n <= -k and rounding is monotone (a zero cap
  takes no boost, and a zero seed's scale floor, the least finite float,
  is nextafter(-inf, +inf)).  The coefficients after k, the tail's (at
  most its cap at p + 1) and the past-1074 maximum are at most B_k.
* So level k moves both sides to the scale ln alpha_k, and adds to 1.0 a
  product r * exp(t) with r < 2 and t <= -40 (rounding is monotone), below
  2 * e**-40 < 2**-53: both sides leave level k at r = 1.0.
* From there both sides run the same operations on the same values, at
  every such depth, so lo_raw = hi_raw = X; the fold's shortcuts leave the
  bits of its plain loop (the :mod:`nestrad.nested` docstring).

The pad 16 * n * ulp(X) grows with n, lo = X - pad is exact or clamped at
0, and hi = X + pad rounds monotonically, so no enclosure at depth c or
deeper is narrower than the one at c, and none converges where c does not.
So :func:`kappa_limit` searches no deeper than a swamp depth that lies
below its cap and the tail's end, and an unconverged search that reaches
it stops there with stop reason ``fp_floor``.  The argument needs only that
the two raw folds agree and that the pad does not shrink with depth, not
the pad's size.  A :func:`kappa_enclosure` call deeper than c still folds
and pads at the depth asked for.

Everything here is pure; results are immutable.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from ._record import Record
from .nested import Enclosure, sqrt_nested_scaled
from .seqspec import LN_PHI, CapTableTail, SequenceSpec

__all__ = [
    "PHI",
    "DEFAULT_DEPTH_CAP",
    "KappaResult",
    "kappa_enclosure",
    "kappa_limit",
]

_INF = float("inf")
_MIN_NORMAL = sys.float_info.min

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Beyond depth 256 the width bound phi**2**-n - 1 is far below binary64
# resolution, so deeper probing cannot tighten anything.
DEFAULT_DEPTH_CAP = 256


def phi_pow(n: int) -> float:
    """phi ** 2**-n, computed as exp(ln(phi) * 2**-n)."""
    if n < 0:
        raise ValueError(f"exponent index must be >= 0, got {n}")
    return math.exp(math.ldexp(LN_PHI, -n))


_STOP_REASONS = ("converged", "depth_cap", "tail_exhausted", "fp_floor")


class KappaResult(Record):
    """Outcome of a tolerance-driven evaluation and why its search stopped.

    ``stop_reason`` is ``converged`` (width <= tol), ``depth_cap`` (the
    depth cap was reached), ``tail_exhausted`` (the spec's tail supplies no
    deeper coefficients; this wins when the cap is the same depth) or
    ``fp_floor`` (no enclosure at the next doubling depth or deeper can be
    narrower than the one returned: the floor of the :mod:`nestrad.kappa`
    docstring, and of the :mod:`nestrad.contfn` one for continued functions;
    or the search reached the spec's swamp depth, where no deeper enclosure
    is narrower, the swamp depth of the :mod:`nestrad.kappa` docstring).
    """

    __slots__ = ("enclosure", "stop_reason")

    def __init__(self, enclosure: Enclosure, stop_reason: str):
        if stop_reason not in _STOP_REASONS:
            raise ValueError(f"stop reason must be one of {_STOP_REASONS}, got {stop_reason!r}")
        self._set_enclosure(self, enclosure)
        self._set_stop_reason(self, stop_reason)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _fp_pad(depth: int, magnitude: float) -> float:
    """Outward padding, per side, of a depth-``depth`` enclosure of this size."""
    return 16.0 * depth * math.ulp(magnitude)


def _fp_floor(depth: int, lo: float) -> float:
    """Least width of any enclosure at ``depth`` or deeper, given an enclosure's lower end lo.

    The floor F of the module docstring, proved for lo >= 2**-1022; 0 below that.
    """
    if lo < _MIN_NORMAL:
        return 0.0
    m = lo * (1.0 - 2.0**-20)
    return 1.5 * _fp_pad(depth, m) - math.ulp(m)


def _padded(lo_raw: float, hi_raw: float, depth: int, analytic: float) -> Enclosure:
    """Enclosure of two folds as evaluated (lo_raw <= hi_raw up to rounding), padded by the policy."""
    # an identically-zero fold is exact, so it needs no outward padding; both
    # folds are >= 0, so the larger one is the magnitude
    pad = _fp_pad(depth, lo_raw if lo_raw > hi_raw else hi_raw) if hi_raw != 0.0 else 0.0
    lo = lo_raw - pad
    lo = lo if lo > 0.0 else 0.0
    hi = hi_raw + pad
    # both pads, plus half a pad (8 * depth ulp) of evaluation noise
    return Enclosure(lo, lo if lo > hi else hi, depth, analytic, 2.5 * pad)


def kappa_enclosure(spec: SequenceSpec, depth: int) -> Enclosure:
    """Two-sided enclosure of the radical at the given depth.

    Uses prefix coefficients 1..depth-1 and the spec's seed bounds at
    ``depth``.  For specs whose tail cannot extend the coefficient sequence
    (cap tables), the depth is clamped to ``prefix length + 1``; the
    returned enclosure reports the depth actually used.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > len(spec.prefix) and isinstance(spec.tail, CapTableTail):
        depth = min(depth, spec.max_depth())
    ln_lower, ln_cap = spec.tail_bounds(depth)
    # one step up from the rounded sum covers the exact boost; a zero cap stays -inf
    ln_hi = math.nextafter(ln_cap + math.ldexp(LN_PHI, 1 - depth), _INF) if ln_cap > -_INF else ln_cap
    if ln_hi + 1e-12 < ln_lower < _INF:  # a NaN or +inf seed is the fold's to refuse
        raise ValueError(
            f"tail bounds at depth {depth} cannot bracket: ln lower seed {ln_lower} exceeds "
            f"ln golden-boosted cap {ln_hi}"
        )
    lo_raw, hi_raw = sqrt_nested_scaled(
        spec.terms_lograw(depth - 1), ln_lower, ln_lower if ln_lower > ln_hi else ln_hi
    )
    # exp(ln_hi) - exp(ln_lower), through expm1 where the difference would
    # cancel; past a log gap of 1 it cancels at most a factor 1 - 1/e, while
    # expm1 would carry the gap's rounding, up to 2**-53 relative per unit of
    # gap.  The fold refused either side past binary64, so no exp overflows
    gap = ln_hi - ln_lower
    if ln_lower == -_INF or gap > 1.0:  # exp(-inf) is 0.0, and x - 0.0 is x
        analytic = math.exp(ln_hi) - math.exp(ln_lower)
    else:
        analytic = math.exp(ln_lower) * math.expm1(gap)
    return _padded(lo_raw, hi_raw, depth, analytic if analytic > 0.0 else 0.0)


def kappa_limit(spec: SequenceSpec, tol: float, depth_cap: int = DEFAULT_DEPTH_CAP) -> KappaResult:
    """Shallowest enclosure with width <= tol, by the module docstring's depth search from depth 4.

    The search runs up to the depth cap, the tail's last depth or the
    spec's swamp depth, whichever is shallowest; a tie goes to the cap
    table's ``tail_exhausted``, then to ``depth_cap``.
    A depth g predicted from depths 4 and 8, lowered where the explicit
    bound is tight to the shallowest depth that the bound and the pads put
    within tol, is confirmed by width(g - 1).  Past a guess wider than tol
    the search gallops up; below one that overshoots it bisects (8, g - 1).
    The returned depth d has width(d) <= tol < width(d - 1) (or d = 1), and
    every doubling depth (4, 8, 16, ...) evaluated below d is wider than
    tol; "shallowest" means exactly this.  Where widths are non-increasing,
    d is the smallest adequate depth.  A search that stops unconverged
    returns the narrowest enclosure found with its stop reason (see
    :class:`KappaResult`) rather than raising: a partial enclosure is still
    certified.
    """
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
    limit, stop = depth_cap, "depth_cap"
    tail_limit = spec.max_depth()
    if tail_limit is not None and tail_limit <= limit:
        limit, stop = tail_limit, "tail_exhausted"
    swamp = spec._swamp_depth()
    if swamp is not None and swamp < limit:
        limit, stop = swamp, "fp_floor"
    # kappa_enclosure is read from the module at each call, so rebinding it reaches the search
    return _search(kappa_enclosure, spec, tol, 4, limit, stop, _analytic_gap)


def _analytic_gap(spec: SequenceSpec, depth: int) -> float:
    """``kappa_enclosure(spec, depth).analytic_width_bound``, read without folding.

    For a depth no deeper than the spec's max depth.  It is inf where the
    seeds make that enclosure raise, so a read raises only what
    ``spec.tail_bounds`` raises.  :func:`kappa_enclosure` repeats the
    arithmetic inline, as its every probe would pay for a call.
    """
    ln_lower, ln_cap = spec.tail_bounds(depth)
    ln_hi = math.nextafter(ln_cap + math.ldexp(LN_PHI, 1 - depth), _INF) if ln_cap > -_INF else ln_cap
    if not ln_lower <= ln_hi + 1e-12 < _INF:  # a NaN or +inf seed, or seeds that cannot bracket
        return _INF
    gap = ln_hi - ln_lower
    try:
        if ln_lower == -_INF or gap > 1.0:  # exp(-inf) is 0.0, and x - 0.0 is x
            return math.exp(ln_hi) - math.exp(ln_lower)
        return math.exp(ln_lower) * math.expm1(gap) if gap > 0.0 else 0.0  # the enclosure's clamp
    except OverflowError:  # the fold at this depth would exceed binary64
        return _INF


def _search(
    enclose: Callable[..., Enclosure],
    subject: object,
    tol: float,
    first: int,
    limit: int,
    stop: str,
    gap: Callable[..., float] | None = None,
) -> KappaResult:
    """The module docstring's depth search over ``enclose(subject, depth)`` up to ``limit``.

    It starts at ``first`` (or ``limit``, if shallower) and doubles.  An
    unconverged search that reaches ``limit`` stops with ``stop``, its
    reason; with ``fp_floor`` (a swamp depth) a guess past ``limit`` probes
    ``limit``.  ``gap(subject, depth)``, where given, reads the enclosure's
    ``analytic_width_bound`` without enclosing; the search caps its guess
    with it where the bound is tight at depth 8 (the module docstring).
    Its bisections interpolate the log widths two probes in three.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    seen: dict[int, Enclosure] = {}
    best: Enclosure | None = None
    best_width = _INF

    def width(depth: int) -> float:
        nonlocal best, best_width
        enclosure = seen.get(depth)
        if enclosure is not None:
            return enclosure.hi - enclosure.lo
        enclosure = seen[depth] = enclose(subject, depth)
        found = enclosure.hi - enclosure.lo
        if best is None or found < best_width:
            best, best_width = enclosure, found
        return found

    def bisect(bad: int, good: int) -> KappaResult:
        # width(bad) > tol >= width(good); depth 0 stands for "nothing shallower".
        # Every depth evaluated below good is wider than tol (the module docstring): take the deepest.
        for depth in seen:
            if bad < depth < good:
                bad = depth
        w_bad, w_good = width(bad) if bad else _INF, width(good)  # depth 0 is wider than any
        probes = 0
        while good - bad > 1:
            mid = (bad + 1 + good) // 2
            # two probes in three interpolate the log widths (the module docstring)
            if probes % 3 < 2 and w_bad < _INF and w_good > 0.0:
                ln_bad = math.log(w_bad)
                fall = ln_bad - math.log(w_good)
                if fall > 0.0:  # the two logs differ
                    mid = min(good - 1, max(bad + 1, bad + int((ln_bad - math.log(tol)) / fall * (good - bad))))
            probes += 1
            found = width(mid)
            if found <= tol:
                good, w_good = mid, found
            else:
                bad, w_bad = mid, found
        return KappaResult(seen[good], "converged")

    previous, depth, previous_width = 0, min(first, limit), _INF
    while True:
        found = width(depth)
        if found <= tol:
            return bisect(previous, depth)
        if depth == 8:  # the doubling came from depth 4
            # past a swamp depth no width is narrower than the limit's, so probe the limit
            guess = _predicted_depth(previous_width, found, tol, limit, limit if stop == "fp_floor" else 0)
            # where the explicit bound is tight, lower the guess to a depth it puts within tol
            if gap is not None and guess > 9 and seen[8].analytic_width_bound <= 4.0 * found:
                guess = _capped_guess(gap, subject, tol, guess, seen[8].hi)
            # both sides of an enclosure carry a pad, so skip a depth the pads
            # alone overshoot; 16 * depth ulp is exact short of overflow, so
            # depth * pad(1) is pad(depth) bit for bit
            pads_per_level = 2.0 * _fp_pad(1, seen[8].hi)
            if guess > 8 and guess * pads_per_level <= tol:
                if width(guess) <= tol:
                    if width(guess - 1) > tol:
                        return KappaResult(seen[guess], "converged")
                    return bisect(8, guess - 1)
                step = 1
                while guess + step < limit and (guess + step) * pads_per_level <= tol:  # gallop up
                    if width(guess + step) <= tol:
                        return bisect(8, guess + step)
                    step *= 2
        if depth >= limit:
            return KappaResult(best, stop)
        previous, depth, previous_width = depth, min(2 * depth, limit), found
        # no enclosure this deep or deeper beats best (the floor, module docstring)
        if _fp_floor(depth, best.lo) > best_width:
            return KappaResult(best, "fp_floor")


def _capped_guess(gap: Callable[..., float], subject: object, tol: float, guess: int, hi_8: float) -> int:
    """The shallowest depth n in (8, guess) with A(n) + S(n) <= tol, else ``guess``.

    A is ``gap`` and S the slack of the module docstring's explicit-bound
    cap; the bisection assumes that A + S falls with depth.
    """
    # S > 0, so an A(g - 1) above tol rules out g - 1 and, A falling, every shallower depth
    at_deepest = gap(subject, guess - 1)
    if not at_deepest <= tol:
        return guess
    # 2.5 * 16 * depth ulp is exact short of overflow, so depth * S(1) is S(depth) bit for bit
    slack_per_level = 2.5 * _fp_pad(1, (hi_8 + tol) * (1.0 + 2.0**-20))
    if at_deepest + (guess - 1) * slack_per_level > tol:
        return guess
    lo, hi = 8, guess - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(subject, mid) + mid * slack_per_level <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _predicted_depth(width_4: float, width_8: float, tol: float, limit: int, past: int = 0) -> int:
    """Depth where widths shrinking geometrically from depth 4 to 8 reach tol.

    Returns 0 when the widths do not shrink, and ``past`` when the depth lies past ``limit``.
    """
    ln_width_8 = math.log(width_8)
    rate = math.log(width_4) - ln_width_8
    if not rate > 0.0:
        return 0
    depth = 8.0 + 4.0 * (ln_width_8 - math.log(tol)) / rate
    return math.ceil(depth) if depth <= limit else past
