"""Finite nested evaluation h(a_1 + h(a_2 + ... h(a_n + seed))).

Two engines live here.  :func:`nested_eval` folds an arbitrary non-decreasing
outer function over raw coefficients.  :func:`sqrt_nested_scaled`
specializes to square roots with coefficients and seeds given as logs on
the normalized scale, ln(alpha_k), and folds both seeds in one pass: it
rescales by the largest normalized value folded so far, so that every
scaled coefficient lies in [0, 1], and runs each level on that raw scale
with at most one exp and one sqrt per side, which makes the fold immune
to overflow at any depth and loses nothing to underflow.  A level that
raises the scale spends its exp on moving r; its own term is exp(0) = 1,
added as 1.0.  A level equal to the scale adds 1.0 too: it runs as a move
by exp(+-0) = 1, except on the lower of two scales, where it takes no exp.
Rescaling is sound because the radical is homogeneous on the normalized
scale: multiplying every normalized coefficient and the seed by C multiplies
the value by C.

The lower seed never lies above the upper one, so the lower side's scale
never exceeds the upper one's.  Once a coefficient above both gives them
one scale, each level's exp serves both sides.

Inner levels whose outcome is known are not run: levels that a dominant
seed swamps leave r at exactly 1, and from r = 1 a run of coefficients
equal to the scale steps r through the golden iterates 1, sqrt(2),
sqrt(1 + sqrt(2)), ..., held in a table up to their binary64 fixpoint.
One routine drops the swamped levels: it tests each level, and drops a
long inner run of one value at once, by a level bound, when the fold has
at least 16 levels and its level n - 8 holds the value of level n.  A fold
of at least 64 levels drops them per side and reads the golden run before
its loop; that costs about a microsecond a side, which shorter folds cannot
repay on every tail, so they drop only the levels swamped on both sides.
The proofs, the gate and the measured crossovers are in the
:func:`sqrt_nested_scaled` docstring.  No returned bit depends on which
levels were dropped or read.

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


def _golden_iterates() -> list[float]:
    # r after m levels whose coefficient equals the scale, from r = 1: the
    # iterates of r <- sqrt(1.0 + r), as the fold rounds them, up to their
    # binary64 fixpoint (m = 31); every later level leaves that fixpoint.
    golden = [1.0]
    while (following := math.sqrt(1.0 + golden[-1])) != golden[-1]:
        golden.append(following)
    return golden


_GOLDEN = _golden_iterates()

# Folds of at least this many levels settle each side's inner levels before
# the loop runs; shorter ones cannot repay the search (see sqrt_nested_scaled).
_SETTLED_FOLD = 64

# A fold of at least this many levels, whose level n - _CLOSED_FORM_RUN holds
# the value of its innermost level n (a run of more than _CLOSED_FORM_RUN
# levels, unless another value breaks it), drops that run's swamped levels at
# once; other folds test each level (see sqrt_nested_scaled).
_CLOSED_FORM_FOLD = 16
_CLOSED_FORM_RUN = 8


class OuterFunction(Record):
    """A non-decreasing function h on [0, inf), with its ceiling.

    ``eval`` is h itself, so h(0) is ``eval(0.0)``; ``label`` names h in
    error messages.  ``ceiling`` is the supremum of h over [0, inf]; it may
    be ``math.inf``.  For arctan it is pi/2, h applied to the infinite
    argument.  Monotonicity, which traps the tail of
    :func:`nestrad.contfn.cf_limit` between h(0) and the ceiling, is a caller
    obligation.  So is accuracy: ``eval`` and ``ceiling`` within 1 ulp (for
    ``ARCTAN``, the libm budget that ``tests/test_libm.py`` checks), and a
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
    exp(2**k * (c_old - c)); that is the radical's homogeneity.  Its own
    term is then exp(2**k * 0) = 1, so the level runs

        r = sqrt(1.0 + r * exp(2**k * (c_old - c))),

    one exp, as an ordinary level takes.  Adding 1.0 gives the sum that
    adding its exp would, bit for bit: the finite ln_alpha gives x =
    fl(ln_alpha - ln_alpha) = +0.0 and a quotient +0.0 by s, and exp(+0.0)
    = 1 exactly (C99 Annex F).  A level whose coefficient equals c runs r =
    sqrt(1.0 + r), as a move or with no exp: fl(c - ln_alpha) is +-0.0, so
    is its quotient by s, exp(+-0.0) = 1 exactly, r * 1.0 = r, and the new
    scale is c up to the sign of a zero.
    So r starts at 1 (0 for a zero seed, with c at the scale floor), the
    level that sets the scale adds 1, and every later W is at least 1: r
    stays in [1, 2) or at 0.  Nothing overflows, and an exp that
    underflows, in a term or in a move of the scale, loses under 2**-1074
    against W >= 1.  A fixed scale would not do: zero
    coefficients between a unit coefficient and a deep seed of 0.5 would
    flush 0.5 ** 2**k to 0 and give 1 for sqrt(1.25).

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

    The seeds come in order, ln_lo_seed <= ln_hi_seed; seeds out of order
    raise ``ValueError``.  Each side's scale is the running maximum of its
    seed and the coefficients folded so far, which keeps the order, so
    scale_lo <= scale_hi at every level.  While scale_lo < scale_hi, a
    level above scale_hi moves both sides, each with its own exp, and
    leaves them at one scale; any other level is an ordinary one on the
    upper side and, on the lower side, one of

        ln_alpha <  c:  r = sqrt(exp((ln_alpha - c) / s) + r),
        ln_alpha == c:  r = sqrt(1.0 + r), with no exp,
        ln_alpha >  c:  the move above.

    At one scale a level is a term below c or a move, an equal one too (no
    benchmark fold reaches an equal level there).  The two sides compute
    the same quotient, (ln_alpha - c) / s for a term or (c - ln_alpha) / s
    for a move, so one exp serves both, bit for bit (scales 0.0 and -0.0
    change at most the sign of a zero quotient, whose exp is 1 either way).

    Swamp.  Let a side enter level n at r = 1 with scale c.  From the
    innermost level outward, a level whose quotient t = (ln_alpha - c) / s,
    rounded as the fold rounds it, is at most -40 changes nothing on that
    side: as fl(ln_alpha - c) < 0, ln_alpha lies below c, so no scale moves,
    and exp(t) < 2**-54, so exp(t) + 1.0 rounds to 1.0 and sqrt(1.0) = 1.0.
    The side leaves the level as it entered it, and the next level sees the
    same state.  The test must be this quotient: ln_alpha <= c - 40 * 2**-k
    would round its right side back to c once 40 * 2**-k falls below half
    an ulp of c, and then skip a coefficient equal to the scale.  Along a
    run of one value a below c, the quotient is d * 2**k exactly, with d =
    fl(a - c), or -inf past binary64, so it falls as k grows.  Write -d = m
    * 2**e with 0.5 <= m < 1 and 40 = 0.625 * 2**6: then d * 2**k <= -40
    exactly from level 6 - e on, or 7 - e when m < 0.625.  Dropping the run
    from that level inward at once drops exactly the levels that testing
    each would, and the levels outside it are tested one by one.  The bound
    costs about 0.6 microseconds (a frexp and the two scans that find the
    run) where a test costs about 70 ns.  Timed against testing each level
    (CPython 3.11 on a 2-core x86-64 machine), it pays from a run of 9
    levels that reaches down to its first swamped level, and from 12 to 16
    when other levels lie between them.  Tried on every short fold, it made
    the benchmark's ``families`` folds, 12 levels on average with 2.4
    swamped, 7% slower.  So it is tried only in a fold of at least 16
    levels whose level n - 8 holds the value of the innermost level n: then
    those folds run within 1% of testing each level, and the U^-1 folds of
    the ``inverse`` benchmark, one run of zeros over every level, 4% faster.

    A fold of fewer than 64 levels, while both sides start at r = 1 (a
    positive seed, or the past-1074 maximum), drops the levels that the
    lower side's scale c = low swamps; they swamp the upper side too, as its
    scale c' >= low gives (ln_alpha - c') / s <= t, because rounding is
    monotone.  A zero seed drops nothing.

    A fold of at least 64 levels settles each side's inner levels on their
    own, from that side's scale c while its r is still 1, in two ways:

    * Swamp, per side, as above.  So the golden-boosted upper side drops
      the levels its own scale swamps, where the lower side may still run
      them.
    * Golden run.  A level with ln_alpha == c computes sqrt(1.0 + r), as
      above: a move by exp(+-0) = 1 leaves r as it is, and the scale at c
      up to the sign of a zero.  From r = 1, a run of m such levels leaves
      r at the m-th binary64 iterate of r <- sqrt(1.0 + r), read from a
      table.  The iterates rise (the first step does, and a monotone rounded
      step keeps the order), so they reach a fixpoint, after 31 steps, where
      any longer run stays.  The run must start at r = 1, so it is read only
      at the side's inner end or right after the levels the side swamps.

    Then the side with more levels left runs them alone, and both sides run
    the rest together, as in a shorter fold.  Each level that runs does the
    float operations of the loop in the same order, and each settled level
    leaves the bits that running it would, so no returned bit depends on
    which levels were settled.  Finding a run normally takes two C-level
    scans of the list, and settling costs about a microsecond per side.  Timed
    against running the levels (CPython 3.11 on a 2-core x86-64 machine),
    it pays from 24 to 32 levels on the constant tails, whose every inner
    level settles, but only from about 72 on Ramanujan's, whose run starts
    at level 56.  At 64 levels the constant tails fold 21-27% faster,
    Ramanujan's up to 8% slower, and a tail with nothing to settle runs
    within 3% of the short path.

    The last step returns exp(c) * r per side, with one exp for both sides
    when their scales are equal.  The exp and the product round once each.
    The product is 0 exactly when r is, which happens only when every input
    of that side is zero: then c is the scale floor and exp(c) is 0 too.

    The two seeds share one pass over ``ln_alphas``, but each side's value
    is the one its own fold would give: an exp left out is exactly 1, and a
    shared exp is the one each side would compute.  So each returned value
    depends only on ``ln_alphas`` and its own seed.  Returns ``(lo_value,
    hi_value)``; raises ``ValueError`` when a radical exceeds binary64.
    """
    if not ln_lo_seed <= ln_hi_seed < _INF:  # seeds out of order, or a NaN or +inf seed
        if ln_lo_seed < _INF and ln_hi_seed < _INF:
            raise ValueError(f"seed logs must be in order, got {ln_lo_seed} above {ln_hi_seed}")
        raise ValueError(f"seed logs must lie in [-inf, inf), got {ln_lo_seed} and {ln_hi_seed}")
    if not sum(ln_alphas) < _INF:  # a NaN or +inf term, or a sum past binary64
        for k, ln_alpha in enumerate(ln_alphas, start=1):
            if not ln_alpha < _INF:
                raise ValueError(f"ln alpha at index {k} must lie in [-inf, inf), got {ln_alpha}")
    if ln_lo_seed > -_INF:
        scale_lo, r_lo = ln_lo_seed, 1.0
    else:
        scale_lo, r_lo = _SCALE_FLOOR_LOG, 0.0
    if ln_hi_seed > -_INF:
        scale_hi, r_hi = ln_hi_seed, 1.0
    else:
        scale_hi, r_hi = _SCALE_FLOOR_LOG, 0.0
    n = len(ln_alphas)
    if n > _DEEPEST_LEVEL:  # levels that only keep the larger of their pair
        deep = max(ln_alphas[_DEEPEST_LEVEL:])
        if deep > scale_lo:
            scale_lo, r_lo = deep, 1.0
        if deep > scale_hi:
            scale_hi, r_hi = deep, 1.0
        n = _DEEPEST_LEVEL
    if n < _SETTLED_FOLD:
        # the levels the lower scale swamps leave both sides at r = 1; most short
        # folds have none, and testing level n here spares them the call
        if r_lo == r_hi == 1.0 and n and (ln_alphas[n - 1] - scale_lo) / _INV_POW2[n] <= -40.0:
            n = _unswamped(ln_alphas, n, scale_lo)
    else:  # each side settles its own inner levels, and the longer side runs on alone
        n_lo, n_hi = n, n
        if r_lo == 1.0:
            n_lo, r_lo = _settled(ln_alphas, n, scale_lo)
        if r_hi == 1.0:
            n_hi, r_hi = _settled(ln_alphas, n, scale_hi)
        if n_lo > n_hi:
            scale_lo, r_lo = _fold_side(ln_alphas, n_hi, n_lo, scale_lo, r_lo)
        elif n_hi > n_lo:
            scale_hi, r_hi = _fold_side(ln_alphas, n_lo, n_hi, scale_hi, r_hi)
        n = n_lo if n_lo < n_hi else n_hi
    exp, sqrt, inv_pow2 = math.exp, math.sqrt, _INV_POW2
    if scale_lo < scale_hi:  # two scales, until a coefficient above both joins them
        while n:
            ln_alpha = ln_alphas[n - 1]
            s = inv_pow2[n]
            n -= 1
            if ln_alpha > scale_hi:  # both sides move to one scale
                r_lo = sqrt(1.0 + r_lo * exp((scale_lo - ln_alpha) / s))
                r_hi = sqrt(1.0 + r_hi * exp((scale_hi - ln_alpha) / s))
                scale_lo = scale_hi = ln_alpha
                break
            r_hi = sqrt(exp((ln_alpha - scale_hi) / s) + r_hi)
            if ln_alpha < scale_lo:
                r_lo = sqrt(exp((ln_alpha - scale_lo) / s) + r_lo)
            elif ln_alpha == scale_lo:  # exp(+-0.0 / s) = 1
                r_lo = sqrt(1.0 + r_lo)
            else:
                r_lo = sqrt(1.0 + r_lo * exp((scale_lo - ln_alpha) / s))
                scale_lo = ln_alpha
    while n:  # one scale: each exp serves both sides
        ln_alpha = ln_alphas[n - 1]
        s = inv_pow2[n]
        n -= 1
        if ln_alpha < scale_lo:
            term = exp((ln_alpha - scale_lo) / s)
            r_lo = sqrt(term + r_lo)
            r_hi = sqrt(term + r_hi)
        else:  # a move, by exp(+-0.0) = 1 at a level equal to the scale
            move = exp((scale_lo - ln_alpha) / s)
            r_lo = sqrt(1.0 + r_lo * move)
            r_hi = sqrt(1.0 + r_hi * move)
            scale_lo = scale_hi = ln_alpha
    try:
        exp_lo = exp(scale_lo)
        lo, hi = exp_lo * r_lo, (exp_lo if scale_hi == scale_lo else exp(scale_hi)) * r_hi
    except OverflowError:
        lo = hi = _INF
    if lo == _INF or hi == _INF:
        raise ValueError("the nested radical exceeds binary64 (about 1.8e308)")
    return lo, hi


def _settled(ln_alphas: Sequence[float], n: int, c: float) -> tuple[int, float]:
    """Levels left to run and r for a side that enters level n at r = 1 with scale c.

    Drops the inner levels that c swamps, then reads a run of levels equal
    to c from the golden iterates (the :func:`sqrt_nested_scaled` docstring).
    """
    n = _unswamped(ln_alphas, n, c)
    if n and ln_alphas[n - 1] == c:
        start = _run_start(ln_alphas, n, 1)
        run = n + 1 - start
        return start - 1, _GOLDEN[run] if run < len(_GOLDEN) else _GOLDEN[-1]
    return n, 1.0


def _unswamped(ln_alphas: Sequence[float], n: int, c: float) -> int:
    """Levels left once scale c, on a side that enters level n at r = 1, drops the inner levels it swamps.

    A swamped inner run of one value that passes the gate goes at once,
    from the level read off the exponent of its gap to c; every other
    level is tested on its own (the :func:`sqrt_nested_scaled` docstring).
    """
    if n >= _CLOSED_FORM_FOLD and ln_alphas[n - 1 - _CLOSED_FORM_RUN] == ln_alphas[n - 1]:
        d = ln_alphas[n - 1] - c
        if d / _INV_POW2[n] <= -40.0:
            m, e = math.frexp(-d)  # -d = m * 2**e, 0.5 <= m < 1, and 40 = 0.625 * 2**6
            first = (6 if m >= 0.625 else 7) - e if d > -_INF else 1
            n = _run_start(ln_alphas, n, first if first > 1 else 1) - 1
    while n and (ln_alphas[n - 1] - c) / _INV_POW2[n] <= -40.0:
        n -= 1
    return n


def _run_start(ln_alphas: Sequence[float], n: int, first: int) -> int:
    """Least level j >= first whose levels j..n all hold the value of level n."""
    a = ln_alphas[n - 1]
    start = ln_alphas.index(a, first - 1, n) + 1  # the first level from `first` on holding a
    if ln_alphas[start - 1:n].count(a) == n + 1 - start:
        return start
    while ln_alphas[n - 2] == a:  # another value breaks the run: walk it
        n -= 1
    return n


def _fold_side(
    ln_alphas: Sequence[float], stop: int, n: int, scale: float, r: float
) -> tuple[float, float]:
    """One side's levels n down to stop + 1, each a term below the scale or a move, as at one scale.

    :func:`sqrt_nested_scaled` runs the longer side of a long fold here.
    """
    exp, sqrt, inv_pow2 = math.exp, math.sqrt, _INV_POW2
    while n > stop:
        ln_alpha = ln_alphas[n - 1]
        s = inv_pow2[n]
        n -= 1
        if ln_alpha < scale:
            r = sqrt(exp((ln_alpha - scale) / s) + r)
        else:
            r = sqrt(1.0 + r * exp((scale - ln_alpha) / s))
            scale = ln_alpha
    return scale, r
