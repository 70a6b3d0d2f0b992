import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestrad.kappa
import nestrad.nested
import support
from nestrad import (
    ARCTAN,
    OuterFunction,
    constant_normalized,
    constant_raw,
    golden,
    kappa_enclosure,
    nested_eval,
    power_tower,
    ramanujan,
    sqrt_nested_scaled,
    u_spec,
)


def ln_alpha_ones(count):
    return [0.0] * count


def fold(ln_alphas, ln_seed):
    """The square-root fold with one seed, given by its log, on both sides."""
    lo, hi = sqrt_nested_scaled(ln_alphas, ln_seed, ln_seed)
    assert lo == hi
    return lo


class TestNestedEval:
    def test_single_sqrt(self):
        # sqrt(2 + 2): the raw seed 2 enters at depth 1 as 2 ** (1/2)
        assert fold([math.log(2.0) / 2], math.log(2.0) / 2) == pytest.approx(2.0, rel=1e-15)

    def test_two_level_sqrt(self):
        value = fold([math.log(7.0) / 2, math.log(3.0) / 4], -math.inf)
        assert value == pytest.approx(2.955004366759697, rel=1e-15)
        assert value == pytest.approx(support.mp_nested_sqrt_raw([7.0, 3.0]), rel=1e-14)

    def test_arctan_fold(self):
        value = nested_eval(ARCTAN, [1.0, 1.0], 0.0)
        assert value == pytest.approx(math.atan(1.0 + math.atan(1.0)), rel=1e-15)
        assert value == pytest.approx(1.0602325257974874, rel=1e-14)

    def test_empty_fold_returns_seed(self):
        assert nested_eval(ARCTAN, [], 5.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            nested_eval(ARCTAN, [1.0], -1.0)
        with pytest.raises(ValueError):
            nested_eval(ARCTAN, [-2.0], 0.0)
        with pytest.raises(ValueError):
            nested_eval(ARCTAN, [math.inf], 0.0)

    def test_non_finite_intermediate_reported(self):
        exploding = OuterFunction(lambda x: math.exp(x) * 1e308, math.inf, "boom")
        with pytest.raises(ValueError, match="non-finite"):
            nested_eval(exploding, [5.0, 5.0], 0.0)


class TestSqrtNestedScaled:
    def test_empty_terms_identity(self):
        assert fold([], math.log(5.0)) == pytest.approx(5.0, rel=1e-15)

    def test_all_zero(self):
        assert sqrt_nested_scaled([float("-inf")] * 4, -math.inf, -math.inf) == (0.0, 0.0)

    def test_matches_plain_arithmetic_small(self):
        # small raw coefficients where the direct fold is exact enough
        raw = [7.0, 3.0]
        ws = [math.log(7.0) / 2, math.log(3.0) / 4]
        assert fold(ws, -math.inf) == pytest.approx(
            support.mp_nested_sqrt_raw(raw), rel=1e-14
        )

    def test_golden_depth_30(self):
        phi = (1 + math.sqrt(5.0)) / 2
        value = fold(ln_alpha_ones(30), 0.0)
        assert value == pytest.approx(phi, abs=1e-6)
        assert value == pytest.approx(support.mp_golden_truncation(30), rel=1e-13)

    def test_ramanujan_depth_24_hits_3(self):
        spec = ramanujan()
        value = fold(spec.terms_lograw(24), -math.inf)
        assert value == pytest.approx(3.0, abs=1e-5)
        assert value == pytest.approx(support.mp_ramanujan_pushed(24), rel=1e-12)
        deeper = fold(spec.terms_lograw(32), -math.inf)
        assert abs(deeper - support.mp_ramanujan_pushed(32)) <= 1e-12

    def test_seed_scale_is_positional(self):
        # seed s at depth n contributes s ** 2**n inside the innermost radical
        ws = [math.log(6.0) / 2]
        value = fold(ws, math.log(3.0) / 2)
        assert value == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("spec,expect", [(ramanujan(), 3.0), (power_tower(), None)])
    def test_depth_256_stays_finite(self, spec, expect):
        value = fold(spec.terms_lograw(256), -math.inf)
        assert math.isfinite(value)
        if expect is not None:
            assert value == pytest.approx(expect, rel=1e-12)

    def test_rejects_bad_input(self):
        # a seed log must lie in [-inf, inf): a NaN or +inf seed is refused, in
        # the words the CLI prints, whatever the order of the other seed
        for ln_lo_seed, ln_hi_seed, shown in (
            (math.nan, 0.0, "nan and 0.0"),
            (0.0, math.nan, "0.0 and nan"),
            (0.0, math.inf, "0.0 and inf"),
            (math.inf, 0.0, "inf and 0.0"),
            (math.inf, math.inf, "inf and inf"),
            (-math.inf, math.nan, "-inf and nan"),
        ):
            with pytest.raises(ValueError) as refused:
                sqrt_nested_scaled([0.0], ln_lo_seed, ln_hi_seed)
            assert str(refused.value) == f"seed logs must lie in [-inf, inf), got {shown}"
        with pytest.raises(ValueError, match="index 2"):
            sqrt_nested_scaled([0.0, math.nan], 0.0, 0.0)
        with pytest.raises(ValueError, match="index 1"):
            sqrt_nested_scaled([math.inf, -math.inf], 0.0, 0.0)
        # finite terms pass the check even when their sum overflows; this radical exceeds binary64
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([1e308, 1e308], 0.0, 0.0)

    def test_seeds_out_of_order_are_refused(self):
        for ln_lo_seed, ln_hi_seed in ((1.0, 0.5), (0.0, -math.inf), (math.nextafter(-3.0, 0.0), -3.0)):
            with pytest.raises(ValueError) as refused:
                sqrt_nested_scaled([0.0, -1.0], ln_lo_seed, ln_hi_seed)
            assert str(refused.value) == f"seed logs must be in order, got {ln_lo_seed} above {ln_hi_seed}"
        # equal seeds are in order, and so are signed zeros either way round
        for ln_lo_seed, ln_hi_seed in ((0.5, 0.5), (0.0, -0.0), (-0.0, 0.0), (-math.inf, -math.inf)):
            sqrt_nested_scaled([0.0, -1.0], ln_lo_seed, ln_hi_seed)

    def test_radical_past_binary64_is_a_value_error(self):
        # both seeds and the coefficient are finite; only the value overflows
        ln_alpha = math.log(1.5e308)
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([ln_alpha], -math.inf, math.log(1.65e308))
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([ln_alpha], ln_alpha, ln_alpha)
        # a seed log past ln(1.8e308) overflows on its own, at its side's last step
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([], -math.inf, 710.0)

    def test_each_side_matches_its_own_fold(self):
        # one pass for both seeds runs each side's own float operations, so
        # every value equals that seed's ldexp-scaled fold, bit for bit, also
        # where the sides share a scale and its exp
        rng = random.Random(107)

        def check(ln_alphas, lo_seed, hi_seed):
            pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
            expected = [support.ldexp_fold(ln_alphas, seed).hex() for seed in (lo_seed, hi_seed)]
            assert [value.hex() for value in pair] == expected

        for _ in range(500):
            ln_alphas = [
                -math.inf if rng.random() < 0.1 else rng.uniform(-300.0, 300.0) * rng.random() ** 4
                for _ in range(rng.randint(0, 40))
            ]
            lo_seed, hi_seed = sorted(
                -math.inf if rng.random() < 0.1 else rng.uniform(-20.0, 20.0) for _ in range(2)
            )
            check(ln_alphas, lo_seed, hi_seed)
        # split pairs: the lo seed far below the largest coefficient, so its side
        # moves its scale, and the hi seed above it, so its side keeps its own
        for _ in range(200):
            ln_alphas = [
                -math.inf if rng.random() < 0.2 else rng.uniform(-700.0, 300.0)
                for _ in range(rng.randint(1, 60))
            ]
            top = max(ln_alphas)
            top = 0.0 if top == -math.inf else top
            lo_seed = rng.uniform(-700.0, top - 1.0)
            hi_seed = rng.uniform(top, 700.0)
            check(ln_alphas, lo_seed, hi_seed)
        # shared scales: an innermost coefficient above both seeds joins the
        # sides' scales, and the 20-60 levels outside it bring their r together
        for _ in range(200):
            base = rng.uniform(-20.0, 20.0)
            seeds = [base, base + rng.choice((2.0**-40, 1e-12, 1.0))]
            top = seeds[1] + rng.choice((2.0**-45, 1e-12, 0.5))
            outer = [top - rng.choice((0.0, 1e-12, 1.0)) * rng.random() for _ in range(rng.randint(20, 60))]
            check(outer + [top], *seeds)
        # norm prefixes with seeds M and M + 2**-(n-1) * ln(phi) stepped up, as
        # kappa_enclosure builds them, and equal seeds
        for _ in range(300):
            ln_alphas = [support.ln(rng.uniform(0.0, 3.0)) for _ in range(rng.randint(0, 63))]
            ln_lower = support.ln(rng.uniform(0.0, 3.0))
            ln_hi = math.nextafter(ln_lower + math.ldexp(nestrad.kappa.LN_PHI, -len(ln_alphas)), math.inf)
            check(ln_alphas, ln_lower, ln_hi)
            check(ln_alphas, ln_lower, ln_lower)


@st.composite
def _fold_cases(draw):
    """Folds from depth 0 to 1,100 rich in the cases the 2**k scalings must keep exact.

    A base value repeats (equal gaps whenever it is the scale), sits a tiny
    step off (gaps near the least subnormal), or gives way to -inf and to
    ln alpha anywhere in [-720, 720]; seed logs run from -inf to 700.
    """
    depth = draw(st.one_of(st.integers(0, 40), st.integers(0, 1100), st.integers(1020, 1100)))
    base = draw(st.one_of(st.just(0.0), st.floats(-720.0, 720.0), st.floats(-1.0, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tiny = (5e-324, 1e-318, 1e-310, 1e-300, 2.0**-1000, 1e-20)

    def ln_alpha():
        roll = rng.random()
        if roll < 0.1:
            return -math.inf
        if roll < 0.4:
            return base
        if roll < 0.55:
            return base + rng.choice((-1.0, 1.0)) * rng.choice(tiny)
        if roll < 0.7:
            return rng.uniform(-720.0, 720.0)
        return base + rng.uniform(-3.0, 3.0) * 10.0 ** -rng.randint(0, 17)

    seed = st.one_of(
        st.just(-math.inf), st.just(0.0), st.floats(0.0, 5.0).map(support.ln), st.floats(-700.0, 700.0)
    )
    lo_seed, hi_seed = sorted((draw(seed), draw(seed)))
    return [ln_alpha() for _ in range(depth)], lo_seed, hi_seed


class TestTableScaledFold:
    """The fold's 2**k scalings equal the ldexp ones, bit for bit, at every depth."""

    @staticmethod
    def oracle(ln_alphas, seed):
        try:
            return support.ldexp_fold(ln_alphas, seed)
        except OverflowError:
            return "exceeds binary64"

    @settings(max_examples=150)
    @given(_fold_cases())
    def test_matches_ldexp_oracle(self, case):
        ln_alphas, lo_seed, hi_seed = case
        expected = (self.oracle(ln_alphas, lo_seed), self.oracle(ln_alphas, hi_seed))
        try:
            pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
        except ValueError as exc:
            assert "exceeds binary64" in str(exc)
            assert "exceeds binary64" in expected
            return
        assert [value.hex() for value in pair] == [value.hex() for value in expected]

    @pytest.mark.parametrize("depth", [1023, 1024, 1050, 1074, 1075, 1100])
    def test_deep_equal_and_tiny_gaps(self, depth):
        # all-equal coefficients at the scale: y collects subnormal increments
        # past level 1023, and the next levels see gaps near 2**-1074
        for ln_alphas in ([0.0] * depth, [0.0, 5e-324] * (depth // 2)):
            for lo_seed, hi_seed in ((0.0, 0.0), (-math.inf, 0.0), (0.0, math.log(1.5))):
                expected = tuple(support.ldexp_fold(ln_alphas, seed) for seed in (lo_seed, hi_seed))
                pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
                assert [value.hex() for value in pair] == [value.hex() for value in expected]


@st.composite
def _long_settled_cases(draw):
    """Folds of 64 to 1,100 levels, which settle each side's inner levels on their own.

    Outward from the innermost level: up to 3 levels far below ln(seed) or
    -inf, then a run of one value out to a random prefix.  The run equals
    either seed (-0.0 against 0.0 too), lies a gap below ln(seed) that
    swamps it from some level on (one ulp up to 1e3, or exactly 40 * 2**-j),
    or is -inf; the prefix holds any of these values and values above.  The
    other seed equals ln(seed), is its other signed zero, lies one step or
    2**-(n-1) * ln(phi) above it, lies anywhere above it up to 700, or is
    -inf.  The seeds come in order, signed zeros in either order.
    """
    depth = draw(st.one_of(st.integers(64, 300), st.integers(1000, 1100)))
    scale = draw(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-700.0, 700.0), st.floats(-1.0, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    above = (
        scale,
        -scale if scale == 0.0 else scale,
        math.nextafter(scale, math.inf),
        scale + math.ldexp(nestrad.kappa.LN_PHI, 1 - depth),
        rng.uniform(scale, 700.0),
        -math.inf,
    )
    other = rng.choice(above)
    lo_seed, hi_seed = sorted(draw(st.permutations((scale, other))))
    gap = rng.choice((math.ulp(scale), 1e-13, 1e-8, 1.0, 1e3, math.ldexp(40.0, -rng.randint(1, 1100))))
    value = rng.choice((scale, -scale if scale == 0.0 else scale, other, scale - gap, -math.inf))
    run_end = rng.randint(0, depth // 2)
    innermost = rng.choice((0, 0, 1, 3))

    def prefix():
        return rng.choice((value, scale - gap, scale, -math.inf, scale - rng.uniform(0.0, 80.0), scale + 1.0))

    ln_alphas = [prefix() for _ in range(run_end)] + [value] * (depth - run_end - innermost)
    return ln_alphas + [rng.choice((-math.inf, scale - 1e3)) for _ in range(innermost)], lo_seed, hi_seed


def _seed_pair(draw):
    """A seed log from -700 to 700, often beyond 400 in magnitude, and the
    other equal to it, -inf or anywhere on that range, in order."""
    ln_seed = st.one_of(st.floats(-700.0, 700.0), st.floats(400.0, 700.0), st.floats(-700.0, -400.0))
    scale = draw(ln_seed)  # the fold's own starting scale for that side
    other = draw(st.one_of(st.just(scale), st.just(-math.inf), st.floats(-700.0, 700.0)))
    return scale, sorted((scale, other))


@st.composite
def _short_run_cases(draw):
    """Folds of 16 to 63 levels whose inner run of one value, 9 levels or more, a seed may swamp.

    The run holds a value (39, 40, 41) * 2**-j * (1 +- 1e-12) below ln(seed)
    for some level j, so that the swamped levels start near level j, or up
    to 80 * 2**-j or one ulp below it, or -inf, or ln(seed) itself.  One draw
    in four breaks the run with another value inside it.  The outer levels
    lie far below the scale or at it.
    """
    depth = draw(st.integers(16, 63))
    scale, (lo_seed, hi_seed) = _seed_pair(draw)
    rng = random.Random(draw(st.integers(0, 2**32)))
    run = rng.randint(9, depth)
    j = rng.randint(1, depth)
    value = rng.choice((
        scale - math.ldexp(rng.choice((39, 40, 41)) * rng.choice((1 - 1e-12, 1.0, 1 + 1e-12)), -j),
        scale - math.ldexp(rng.uniform(0.0, 80.0), -j),
        math.nextafter(scale, -math.inf),
        -math.inf,
        scale,
    ))
    ln_alphas = [scale if rng.random() < 0.2 else scale - rng.uniform(1.0, 1000.0) for _ in range(depth - run)]
    ln_alphas += [value] * run
    if rng.random() < 0.25:  # a break inside the run, which the level bound must not jump
        ln_alphas[rng.randint(depth - run, depth - 2)] = rng.choice((scale, scale - 1.0, -math.inf))
    return ln_alphas, lo_seed, hi_seed


@st.composite
def _swamped_cases(draw):
    """Folds whose inner levels sit at the threshold where a dominant seed swamps them.

    A third of the draws are long folds (:func:`_long_settled_cases`) and a
    third are short folds with a long inner run (:func:`_short_run_cases`).
    In the rest, the seeds are drawn as there, and from the innermost level
    outward a run of coefficients equals ln(seed), lies (39, 40, 41) * 2**-k
    * (1 +- 1e-12) or up to 80 * 2**-k below it, or is -inf; the outer
    levels lie far below the scale or at it.  Depths reach 1,100, and 40 to
    64 are drawn often: there 40 * 2**-k falls below half an ulp of a large
    scale.
    """
    kind = draw(st.sampled_from(("long", "run", "levels")))
    if kind == "long":
        return draw(_long_settled_cases())
    if kind == "run":
        return draw(_short_run_cases())
    depth = draw(st.one_of(st.integers(1, 64), st.integers(40, 64), st.integers(1, 1100)))
    scale, (lo_seed, hi_seed) = _seed_pair(draw)
    rng = random.Random(draw(st.integers(0, 2**32)))
    run = rng.randint(0, depth)

    def inner(k):
        roll = rng.random()
        if roll < 0.3:
            return scale
        if roll < 0.75:
            return scale - math.ldexp(rng.choice((39, 40, 41)) * rng.choice((1 - 1e-12, 1.0, 1 + 1e-12)), -k)
        if roll < 0.9:
            return scale - math.ldexp(rng.uniform(0.0, 80.0), -k)
        return -math.inf

    at_scale = rng.choice((0.0, 0.05, 0.5))  # levels at the scale blur the inner ones

    def outer(k):
        return scale if rng.random() < at_scale else scale - rng.uniform(1.0, 1000.0)

    ln_alphas = [outer(k) if k <= depth - run else inner(k) for k in range(1, depth + 1)]
    return ln_alphas, lo_seed, hi_seed


@st.composite
def _unswamped_cases(draw):
    """A fold of 16 to 1,074 levels and a finite scale c of one of its seeds, as drawn for the fold.

    Half the folds are short (:func:`_short_run_cases`) and half long
    (:func:`_long_settled_cases`).  Level n - 8 then holds the value of the
    innermost level n, which meets the gate of the run's level bound, or
    another value, which misses it.
    """
    short = draw(st.booleans())
    ln_alphas, lo_seed, hi_seed = draw(_short_run_cases() if short else _long_settled_cases())
    ln_alphas = ln_alphas[:nestrad.nested._DEEPEST_LEVEL]
    c = draw(st.sampled_from([seed for seed in (lo_seed, hi_seed) if seed > -math.inf] or [0.0]))
    innermost = ln_alphas[-1]
    if draw(st.booleans()):  # gate met
        ln_alphas[-9] = innermost
    elif ln_alphas[-9] == innermost:  # gate missed
        ln_alphas[-9] = c if innermost != c else c - 1.0
    return ln_alphas, c


class TestSwampedLevels:
    """Inner levels whose result is known are skipped or read from a table, and no output moves."""

    @settings(max_examples=450)
    @given(_swamped_cases())
    def test_matches_ldexp_oracle(self, case):
        ln_alphas, lo_seed, hi_seed = case
        expected = [support.ldexp_fold(ln_alphas, seed).hex() for seed in (lo_seed, hi_seed)]
        assert [value.hex() for value in sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)] == expected

    @settings(max_examples=300)
    @given(_unswamped_cases())
    def test_unswamped_drops_what_testing_each_level_drops(self, case):
        # the run's level bound, gate met or missed, leaves the levels that
        # testing each level from the innermost outward would leave, and the
        # fold of those from seed c is the whole fold's, bit for bit
        ln_alphas, c = case
        n = len(ln_alphas)
        while n and (ln_alphas[n - 1] - c) / 2.0**-n <= -40.0:
            n -= 1
        assert nestrad.nested._unswamped(ln_alphas, len(ln_alphas), c) == n
        assert support.ldexp_fold(ln_alphas[:n], c).hex() == support.ldexp_fold(ln_alphas, c).hex()

    def test_rounded_threshold_trap(self):
        # past level 49, 40 * 2**-k is below half an ulp of 700, so a threshold
        # ln_alpha <= 700 - 40 * 2**-k rounds back to 700 and would skip the 40
        # coefficients equal to the scale
        ln_alphas = [700.0 - 600.0 * 2.0**-k for k in range(1, 50)] + [700.0] * 40
        assert fold(ln_alphas, 700.0).hex() == support.ldexp_fold(ln_alphas, 700.0).hex()
        assert fold(ln_alphas, 700.0) == 1.0142320547350052e304

    @pytest.fixture
    def exp_calls(self, monkeypatch):
        """Counts the fold's calls to ``exp``: at most one per level that runs and side, and the last step's."""
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        counted = types.SimpleNamespace(**vars(math))  # every function the fold calls
        counted.exp = exp
        monkeypatch.setattr(nestrad.nested, "math", counted)
        return calls

    @pytest.mark.parametrize("r,calls", [(1e3, 4), (1.5, 12)])
    def test_u_runs_only_the_outer_levels(self, exp_calls, r, calls):
        # 255 levels of ln alpha = 0 settle per side.  The lower scale is ln(r)
        # and the boosted cap's log one step above it, so on both sides d = 0 -
        # c has -d = m * 2**e with m >= 0.625: 6.91 = 0.86 * 2**3 for r = 1e3
        # and 0.405 = 0.81 * 2**-1 for r = 1.5, swamped from level 6 - e = 3
        # and 7 on.  Levels 1-2 and 1-6 run, one exp per side each, and each
        # side ends with its own exp, as the scales differ.
        kappa_enclosure(u_spec(r), 256)
        assert len(exp_calls) == calls + 2

    def test_u_at_one_reads_the_lower_side_from_the_table(self, exp_calls):
        # every all-ones coefficient equals the lower scale, 0, so the lower
        # side reads all 255 levels from the golden iterates with no exp.  The
        # boosted cap's log, 2**-255 * ln(phi) one step up, swamps no level
        # (at level 255 the quotient is about -ln(phi)), so the upper side
        # runs all 255 alone; then one last exp per side, as the scales differ.
        kappa_enclosure(u_spec(1.0), 256)
        assert len(exp_calls) == 255 + 2

    def test_powertower_runs_the_upper_side_to_level_58(self, exp_calls):
        # ln alpha = ln 2 at every level: the lower side reads all 255 from the
        # golden iterates.  The boosted cap's log rounds to ln 2 and steps up
        # once, to ln 2 + 2**-53, so d = -2**-53 = -0.5 * 2**-52 swamps from
        # level 7 + 52 = 59 on (m = 0.5 < 0.625): the upper side runs levels
        # 1-58 alone, then one last exp per side
        kappa_enclosure(power_tower(), 256)
        assert len(exp_calls) == 58 + 2

    def test_zero_lower_seed_skips_nothing(self, exp_calls):
        # 50 levels per side, and the last step's exp of each side's scale
        sqrt_nested_scaled([-math.inf] * 50, -math.inf, math.log(1e300))
        assert len(exp_calls) == 2 * 50 + 2

    def test_innermost_coefficient_above_both_seeds_joins_the_scales(self, exp_calls):
        # the innermost level moves both scales to 1.0, one exp per side; its
        # term is exp(0) = 1, added as 1.0.  From there the sides share a
        # scale: each of the 49 zero levels takes one exp for both, and the
        # shared scale ends with one exp
        sqrt_nested_scaled([-math.inf] * 49 + [1.0], 0.0, math.log(2.0))
        assert len(exp_calls) == 2 + 49 + 1

    def test_equal_seeds_share_each_exp(self, exp_calls):
        # equal seeds start at one scale: the innermost level moves it from
        # ln 0.5 to 0 with one exp for both sides, the 29 outside it equal the
        # scale and take none, and the last step takes one
        sqrt_nested_scaled([0.0] * 30, math.log(0.5), math.log(0.5))
        assert len(exp_calls) == 2

    def test_golden_lower_side_takes_no_exp(self, exp_calls):
        # 19 levels of ln alpha = 0: each equals the lower scale, 0, so the
        # lower side adds 1.0 with no exp, while the upper side, on the boosted
        # cap's scale, takes one per level; then one last exp per side
        kappa_enclosure(golden(), 20)
        assert len(exp_calls) == 19 + 2

    def test_scale_moving_at_every_level_takes_one_exp_per_level(self, exp_calls):
        # raw 6 at every level: ln alpha_k = 2**-k * ln 6 rises outward, and
        # level 19's 2**-19 * ln 6 = 3.42e-6 lies above both seed logs (2.10e-6
        # and 1.71e-6 + 2**-19 * ln(phi) = 2.63e-6), so every level moves both
        # scales.  Level 19 moves each side from its own scale, one exp per
        # side; from then on the sides share a scale, and each of the 18
        # levels outside moves both with one exp.  The shared scale, ln alpha_1,
        # ends with one exp
        kappa_enclosure(constant_raw(6.0), 20)
        assert len(exp_calls) == 2 + 18 + 1


_NAMED_SPECS = {
    "golden": golden(),
    "powertower": power_tower(),
    "ramanujan": ramanujan(),
    "constant_raw:6": constant_raw(6.0),
    "constant_raw:1e200": constant_raw(1e200),
    "constant_norm:1.5": constant_normalized(1.5),
    "constant_norm:0.5": constant_normalized(0.5),
    **{f"U({r})": u_spec(r) for r in (1.0, 1.5, 3.0, 1e3, 1e300)},
}


class TestLongFoldsOnEveryFamily:
    """Each side of every family's fold equals the ldexp oracle, from short folds to far past 64 levels."""

    @pytest.mark.parametrize("depth", [2, 8, 33, 63, 64, 65, 256, 1024, 1075, 1100])
    @pytest.mark.parametrize("name", sorted(_NAMED_SPECS))
    def test_kappa_inputs_match_the_oracle(self, monkeypatch, name, depth):
        folds = []

        def recorded(ln_alphas, ln_lo_seed, ln_hi_seed):
            pair = sqrt_nested_scaled(ln_alphas, ln_lo_seed, ln_hi_seed)
            folds.append((ln_alphas, (ln_lo_seed, ln_hi_seed), pair))
            return pair

        monkeypatch.setattr(nestrad.kappa, "sqrt_nested_scaled", recorded)
        kappa_enclosure(_NAMED_SPECS[name], depth)
        [(ln_alphas, seeds, pair)] = folds
        assert len(ln_alphas) == depth - 1
        expected = [support.ldexp_fold(ln_alphas, seed).hex() for seed in seeds]
        assert [value.hex() for value in pair] == expected


class TestSeedGap:
    """Swinging the seed from lower to upper moves the fold by at most the swing."""

    def test_zero_terms_degenerate_to_seed_difference(self):
        zeros = [float("-inf")] * 3
        lo, hi = sqrt_nested_scaled(zeros, math.log(0.4), math.log(0.9))
        gap = hi - lo
        assert gap == pytest.approx(0.5, abs=1e-15)

    def test_golden_terms_contract(self):
        ones = ln_alpha_ones(10)
        lo, hi = sqrt_nested_scaled(ones, 0.0, math.log(1.2))
        gap = hi - lo
        assert 0.0 < gap <= 0.2

    def test_equal_seeds(self):
        ones = ln_alpha_ones(5)
        lo, hi = sqrt_nested_scaled(ones, 0.0, 0.0)
        assert hi - lo == 0.0


class TestSeedGapPair:
    """Seed swings over smaller coefficients dominate those over larger ones."""

    def test_worked_example(self):
        # raw seeds 0 and 1 are 0 and 1 on the normalized scale too, with logs -inf and 0
        low, high = sqrt_nested_scaled([-math.inf, -math.inf], -math.inf, 0.0)
        gap_small = high - low
        low, high = sqrt_nested_scaled([math.log(7.0) / 2, math.log(3.0) / 4], -math.inf, 0.0)
        gap_large = high - low
        assert gap_small == pytest.approx(1.0, rel=1e-15)
        assert gap_large == pytest.approx(3.0 - 2.955004366759697, rel=1e-12)
        assert gap_small >= gap_large

    def test_equal_lists_equal_gaps(self):
        terms = [1.0, 2.0]
        gap = nested_eval(ARCTAN, terms, 0.7) - nested_eval(ARCTAN, terms, 0.2)
        assert gap == nested_eval(ARCTAN, [1.0, 2.0], 0.7) - nested_eval(ARCTAN, [1.0, 2.0], 0.2)

    def test_equal_seeds_zero_gaps(self):
        assert nested_eval(ARCTAN, [1.0], 0.5) - nested_eval(ARCTAN, [1.0], 0.5) == 0.0


class TestSwapAdjacent:
    """Sorting two adjacent normalized coefficients ascending never grows the fold."""

    def test_two_terms_boundary_equality(self):
        assert support.norm_fold([2.0, 1.0]) == pytest.approx(math.sqrt(5.0), rel=1e-14)
        assert support.norm_fold([1.0, 2.0]) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_three_terms(self):
        assert support.norm_fold([3.0, 1.0, 1.0]) >= support.norm_fold([1.0, 3.0, 1.0]) - 1e-12

    def test_sorted_pair_unchanged(self):
        assert support.norm_fold([1.0, 1.0]) == support.norm_fold([1.0, 1.0])


class TestRandomizedInequalities:
    def test_concave_drop(self):
        support.run_concave_drop_suite(300, random.Random(101))

    def test_gap_dominance(self):
        support.run_gap_dominance_suite(300, random.Random(102))

    def test_seed_gap_contract(self):
        support.run_seed_gap_suite(300, random.Random(103))

    def test_swap_inequality(self):
        support.run_swap_suite(300, random.Random(104))

    def test_composition_concavity(self):
        support.run_composition_concavity_suite(300, random.Random(105))

    def test_fold_monotonicity(self):
        support.run_fold_monotonicity_suite(300, random.Random(106))
