import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from nestrad import (
    ARCTAN,
    OuterFunction,
    nested_eval,
    power_tower,
    ramanujan,
    sqrt_nested_scaled,
)


def ln_alpha_ones(count):
    return [0.0] * count


def fold(ln_alphas, seed):
    """The square-root fold with one seed on both sides."""
    lo, hi = sqrt_nested_scaled(ln_alphas, seed, seed)
    assert lo == hi
    return lo


class TestNestedEval:
    def test_single_sqrt(self):
        # sqrt(2 + 2): the raw seed 2 enters at depth 1 as 2 ** (1/2)
        assert fold([math.log(2.0) / 2], math.sqrt(2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_two_level_sqrt(self):
        value = fold([math.log(7.0) / 2, math.log(3.0) / 4], 0.0)
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
        assert fold([], 5.0) == pytest.approx(5.0, rel=1e-15)

    def test_all_zero(self):
        assert sqrt_nested_scaled([float("-inf")] * 4, 0.0, 0.0) == (0.0, 0.0)

    def test_matches_plain_arithmetic_small(self):
        # small raw coefficients where the direct fold is exact enough
        raw = [7.0, 3.0]
        ws = [math.log(7.0) / 2, math.log(3.0) / 4]
        assert fold(ws, 0.0) == pytest.approx(
            support.mp_nested_sqrt_raw(raw), rel=1e-14
        )

    def test_golden_depth_30(self):
        phi = (1 + math.sqrt(5.0)) / 2
        value = fold(ln_alpha_ones(30), 1.0)
        assert value == pytest.approx(phi, abs=1e-6)
        assert value == pytest.approx(support.mp_golden_truncation(30), rel=1e-13)

    def test_ramanujan_depth_24_hits_3(self):
        spec = ramanujan()
        value = fold(spec.terms_lograw(24), 0.0)
        assert value == pytest.approx(3.0, abs=1e-5)
        assert value == pytest.approx(support.mp_ramanujan_pushed(24), rel=1e-12)
        deeper = fold(spec.terms_lograw(32), 0.0)
        assert abs(deeper - support.mp_ramanujan_pushed(32)) <= 1e-12

    def test_seed_scale_is_positional(self):
        # seed s at depth n contributes s ** 2**n inside the innermost radical
        ws = [math.log(6.0) / 2]
        value = fold(ws, 3.0 ** 0.5)
        assert value == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("spec,expect", [(ramanujan(), 3.0), (power_tower(), None)])
    def test_depth_256_stays_finite(self, spec, expect):
        value = fold(spec.terms_lograw(256), 0.0)
        assert math.isfinite(value)
        if expect is not None:
            assert value == pytest.approx(expect, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sqrt_nested_scaled([0.0], -1.0, 1.0)
        with pytest.raises(ValueError):
            sqrt_nested_scaled([0.0], 1.0, math.inf)
        with pytest.raises(ValueError, match="index 2"):
            sqrt_nested_scaled([0.0, math.nan], 1.0, 1.0)
        with pytest.raises(ValueError, match="index 1"):
            sqrt_nested_scaled([math.inf, -math.inf], 1.0, 1.0)
        # finite terms pass the check even when their sum overflows; this radical exceeds binary64
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([1e308, 1e308], 1.0, 1.0)

    def test_radical_past_binary64_is_a_value_error(self):
        # both seeds and the coefficient are finite; only the value overflows
        ln_alpha = math.log(1.5e308)
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([ln_alpha], 0.0, 1.65e308)
        with pytest.raises(ValueError, match="exceeds binary64"):
            sqrt_nested_scaled([ln_alpha], 1.5e308, 1.5e308)

    def test_each_side_matches_its_own_fold(self):
        # one pass for both seeds runs each side's own float operations, so
        # every value equals the fold with that seed on both sides, bit for bit
        rng = random.Random(107)
        for _ in range(500):
            ln_alphas = [
                -math.inf if rng.random() < 0.1 else rng.uniform(-300.0, 300.0) * rng.random() ** 4
                for _ in range(rng.randint(0, 40))
            ]
            lo_seed, hi_seed = (
                0.0 if rng.random() < 0.1 else math.exp(rng.uniform(-20.0, 20.0)) for _ in range(2)
            )
            pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
            assert pair == (fold(ln_alphas, lo_seed), fold(ln_alphas, hi_seed))
        # split pairs: the lo seed far below the largest coefficient, so its side
        # moves its scale, and the hi seed above it, so its side keeps its own
        for _ in range(200):
            ln_alphas = [
                -math.inf if rng.random() < 0.2 else rng.uniform(-700.0, 300.0)
                for _ in range(rng.randint(1, 60))
            ]
            top = max(ln_alphas)
            top = 0.0 if top == -math.inf else top
            lo_seed = math.exp(rng.uniform(-700.0, top - 1.0))
            hi_seed = math.exp(rng.uniform(top, 700.0))
            pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
            assert pair == (fold(ln_alphas, lo_seed), fold(ln_alphas, hi_seed))


@st.composite
def _fold_cases(draw):
    """Folds from depth 0 to 1,100 rich in the cases the 2**k scalings must keep exact.

    A base value repeats (equal gaps whenever it is the scale), sits a tiny
    step off (gaps near the least subnormal), or gives way to -inf and to
    ln alpha anywhere in [-720, 720]; seeds run from 0 to e**700.
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
        st.just(0.0), st.just(1.0), st.floats(0.0, 5.0), st.floats(-700.0, 700.0).map(math.exp)
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
            for lo_seed, hi_seed in ((1.0, 1.0), (0.0, 1.0), (1.0, 1.5)):
                expected = tuple(support.ldexp_fold(ln_alphas, seed) for seed in (lo_seed, hi_seed))
                pair = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
                assert [value.hex() for value in pair] == [value.hex() for value in expected]


class TestSeedGap:
    """Swinging the seed from lower to upper moves the fold by at most the swing."""

    def test_zero_terms_degenerate_to_seed_difference(self):
        zeros = [float("-inf")] * 3
        lo, hi = sqrt_nested_scaled(zeros, 0.4, 0.9)
        gap = hi - lo
        assert gap == pytest.approx(0.5, abs=1e-15)

    def test_golden_terms_contract(self):
        ones = ln_alpha_ones(10)
        lo, hi = sqrt_nested_scaled(ones, 1.0, 1.2)
        gap = hi - lo
        assert 0.0 < gap <= 0.2

    def test_equal_seeds(self):
        ones = ln_alpha_ones(5)
        lo, hi = sqrt_nested_scaled(ones, 1.0, 1.0)
        assert hi - lo == 0.0


class TestSeedGapPair:
    """Seed swings over smaller coefficients dominate those over larger ones."""

    def test_worked_example(self):
        # raw seeds 0 and 1 are 0 and 1 on the normalized scale too
        low, high = sqrt_nested_scaled([-math.inf, -math.inf], 0.0, 1.0)
        gap_small = high - low
        low, high = sqrt_nested_scaled([math.log(7.0) / 2, math.log(3.0) / 4], 0.0, 1.0)
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
