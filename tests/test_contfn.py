import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nestrad.contfn
import support
from nestrad import (
    ARCTAN,
    ContinuedSpec,
    OuterFunction,
    cf_limit,
    nested_eval,
)
from nestrad.kappa import _fp_floor, _padded

# an outer function without a finite ceiling
LOG1P = OuterFunction(math.log1p, math.inf, "log1p")


def _enclosure(terms, depth):
    """The two-seed enclosure at ``depth``, built from the folds as cf_limit pads them."""
    lo, hi = (nested_eval(ARCTAN, terms[:depth], seed) for seed in (0.0, ARCTAN.ceiling))
    return _padded(lo, hi, depth, hi - lo if hi > lo else 0.0)


class TestCfEval:
    # the depth-n fold with seed 0 is nested_eval over the first n terms
    def test_arctan_two_terms(self):
        assert nested_eval(ARCTAN, [1.0, 1.0], 0.0) == pytest.approx(1.0602325257974874, rel=1e-14)

    def test_depth_zero(self):
        assert nested_eval(ARCTAN, [], 0.0) == 0.0

    def test_unbounded_outer_one_term(self):
        terms = ContinuedSpec(LOG1P, [6.0, 216.0]).terms
        assert nested_eval(LOG1P, terms[:1], 0.0) == pytest.approx(math.log(7.0), rel=1e-15)


class TestCfErrorBound:
    def test_first_three_iterates(self):
        assert support.arctan_error_bound(1) == pytest.approx(math.pi / 2, rel=1e-15)
        assert support.arctan_error_bound(2) == pytest.approx(1.0038848218538872, rel=1e-14)
        assert support.arctan_error_bound(3) == pytest.approx(0.7873368062499202, rel=1e-14)

    def test_strictly_decreasing(self):
        bounds = [support.arctan_error_bound(n) for n in range(1, 40)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_needs_finite_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            cf_limit(ContinuedSpec(LOG1P, [0.0] * 3), 0.1)

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth cap"):
            cf_limit(ContinuedSpec(ARCTAN, [0.0]), 0.1, depth_cap=0)

    def test_refusals_name_their_cause(self):
        with pytest.raises(ValueError, match="depth cap must be >= 1, got -3"):
            cf_limit(ContinuedSpec(ARCTAN, [0.0]), 0.1, depth_cap=-3)
        with pytest.raises(ValueError, match="no terms available"):
            cf_limit(ContinuedSpec(ARCTAN, []), 0.1, depth_cap=5)


class TestCfLimit:
    def test_loose_tolerance_needs_one_term(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [1.0, 1.0]), 2.0)
        assert result.converged
        assert result.enclosure.depth == 1
        # the gap between the folds from the two seeds, atan(0) = 0 and pi/2
        gap = math.atan(1.0 + math.pi / 2) - math.atan(1.0)
        assert result.enclosure.analytic_width_bound == gap

    def test_all_ones_to_5_percent(self):
        # the folds from both seeds contract onto the fixed point within three terms
        result = cf_limit(ContinuedSpec(ARCTAN, [1.0] * 700), 0.05)
        assert result.converged
        assert result.enclosure.depth == 3
        assert result.enclosure.width <= 0.05
        # oracle: the limit is the fixed point of x = arctan(1 + x)
        limit = 1.0
        for _ in range(200):
            limit = math.atan(1.0 + limit)
        assert result.enclosure.lo <= limit <= result.enclosure.hi

    def test_all_zeros(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [0.0] * 700), 0.05)
        assert result.converged
        assert result.enclosure.lo == 0.0
        assert result.enclosure.hi <= 0.05 + 1e-12
        # all-zero terms fold the ceiling's iterates, the slowest the gap can shrink
        assert result.enclosure.analytic_width_bound == support.arctan_error_bound(result.enclosure.depth + 1)

    def test_unconverged_when_terms_run_out(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [0.0] * 10), 0.05)
        assert not result.converged
        assert result.stop_reason == "tail_exhausted"
        assert result.enclosure.depth == 10
        assert result.enclosure.analytic_width_bound > 0.05

    def test_unconverged_at_depth_cap(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [0.0] * 700), 0.05, depth_cap=10)
        assert result.stop_reason == "depth_cap"
        assert result.enclosure.depth == 10

    def test_stops_at_the_fp_floor(self, monkeypatch):
        # at tol 1e-13 the pads outgrow the gap (3.3e-16 at depth 32): the
        # guess from depths 4 and 8, 27, and its neighbour 28 are wider than
        # tol, so the search resumes doubling, and the floor at depth 64, 1.5
        # pads less an ulp, exceeds depth 32's width, so it stops there
        # instead of folding on to the cap
        spec = ContinuedSpec(ARCTAN, [0.5] * 300)
        folds = []

        def counted(h, terms, seed):
            folds.append(len(terms))
            return nested_eval(h, terms, seed)

        monkeypatch.setattr(nestrad.contfn, "nested_eval", counted)
        result = cf_limit(spec, 1e-13, 256)
        assert result.stop_reason == "fp_floor"
        assert (result.enclosure.depth, result.enclosure.width) == (32, 1.1401990462900358e-13)
        # depths 1, 2, 4, 8, 27, 28, 16 and 32, two folds each
        assert (len(folds), sum(folds)) == (16, 236)
        for depth in (64, 65, 128, 256, 300):  # no deeper enclosure is narrower
            lo, hi = (nested_eval(ARCTAN, spec.terms[:depth], seed) for seed in (0.0, ARCTAN.ceiling))
            assert _padded(lo, hi, depth, hi - lo).width > result.enclosure.width

    def test_converges_where_the_widths_dip_under_tol(self):
        # the guess from depths 4 and 8 lands on depth 19, under tol before
        # the pads grow; a plain doubling would jump to 32 and stop at the floor
        spec = ContinuedSpec(ARCTAN, [1.0] * 300)
        result = cf_limit(spec, 2e-13)
        assert result.converged
        assert (result.enclosure.depth, result.enclosure.width) == (19, 1.545430450278218e-13)
        assert _enclosure(spec.terms, 18).width > 2e-13

    def test_shallowest_converged_depth(self):
        # every depth below the one returned is wider than tol
        spec = ContinuedSpec(ARCTAN, [0.5] * 100)
        for tol in (0.3, 1e-3, 1e-9, 1e-12):
            result = cf_limit(spec, tol)
            depth = result.enclosure.depth
            assert result.converged and result.enclosure.width <= tol
            if depth > 1:
                assert not cf_limit(spec, tol, depth_cap=depth - 1).converged

    def test_validation(self):
        with pytest.raises(ValueError):
            cf_limit(ContinuedSpec(ARCTAN, [1.0]), 0.0)
        with pytest.raises(ValueError):
            cf_limit(ContinuedSpec(ARCTAN, []), 0.1)


class TestContinuedSpecRefusal:
    """The first bad term is named wherever it stands; a sum that overflows is no bad term."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -2.5, -5e-324])
    @pytest.mark.parametrize("place", ["first", "last", "only"])
    def test_names_the_bad_term(self, bad, place):
        terms = {"first": [bad, 1.0, 2.0], "last": [1.0, 2.0, bad], "only": [bad]}[place]
        with pytest.raises(ValueError) as raised:
            ContinuedSpec(ARCTAN, terms)
        assert str(raised.value) == f"continued-function terms must be finite and >= 0, got {bad}"

    def test_names_the_first_of_several(self):
        with pytest.raises(ValueError, match=r"got inf$"):
            ContinuedSpec(ARCTAN, [0.0, math.inf, -1.0, math.nan])

    def test_accepts_terms_whose_sum_overflows(self):
        terms = [1.5e308, 1.5e308, -0.0, 0.0]
        assert ContinuedSpec(ARCTAN, terms).terms == tuple(terms)

    def test_accepts_no_terms(self):
        assert ContinuedSpec(ARCTAN, ()).terms == ()


@st.composite
def _search_cases(draw):
    # all zeros, U(0, 1) or U(0, 10), up to 300 terms
    high = draw(st.sampled_from((0.0, 1.0, 10.0)))
    rng = draw(st.randoms(use_true_random=False))
    terms = [rng.uniform(0.0, high) for _ in range(draw(st.integers(1, 300)))]
    tol = 10.0 ** draw(st.floats(-15.0, math.log10(2.0)))
    return terms, tol, draw(st.sampled_from((None, 5, 64)))


class TestSearchAgainstScan:
    """cf_limit checked against enclosures evaluated depth by depth."""

    @settings(max_examples=200)
    @given(_search_cases())
    @example(([0.5] * 300, 1e-13, None))
    @example(([0.0] * 300, 1e-5, None))
    def test_search_matches_exhaustive_scan(self, case):
        terms, tol, depth_cap = case
        result = cf_limit(ContinuedSpec(ARCTAN, terms), tol, depth_cap)
        depth = result.enclosure.depth
        # whatever the stop reason, the search returns the enclosure at its depth
        assert repr(result.enclosure) == repr(_enclosure(terms, depth))
        if result.converged:
            assert result.enclosure.width <= tol
            if depth > 1:
                assert _enclosure(terms, depth - 1).width > tol
            return
        assert result.stop_reason in ("depth_cap", "tail_exhausted", "fp_floor")
        # the doubling depths 1, 2, 4, ... below the deepest depth, and that depth
        deepest = len(terms) if depth_cap is None else min(depth_cap, len(terms))
        scan = [d for d in (2**k for k in range(9)) if d < deepest] + [deepest]
        widths = [_enclosure(terms, d).width for d in scan]
        assert min(widths) > tol
        assert result.enclosure.width <= min(widths)
        if result.stop_reason == "fp_floor":
            # the floor bounds every deeper width from below, and the search
            # stopped where it exceeds the returned width
            for deeper in range(depth + 1, min(deepest, 4 * depth) + 1):
                width = _enclosure(terms, deeper).width
                floor = _fp_floor(deeper, result.enclosure.lo)
                assert width >= floor, deeper
                if floor > result.enclosure.width:
                    assert width >= result.enclosure.width, deeper


class TestErrorBoundValidity:
    def test_random_term_lists(self):
        rng = random.Random(42)
        bounds = [support.arctan_error_bound(n) for n in range(1, 41)]
        for _ in range(50):
            terms = [rng.uniform(0.0, 3.0) for _ in range(40)]
            deep = nested_eval(ARCTAN, terms, 0.0)
            for n in range(1, 41):
                shallow = nested_eval(ARCTAN, terms[:n], 0.0)
                assert abs(deep - shallow) <= bounds[n - 1] + 1e-12

    def test_two_fold_gap_within_the_iterated_bound(self):
        # the gap at depth n is at most the n-fold iterate of arctan from pi/2
        # (the contfn docstring), and equal to it on all-zero terms
        rng = random.Random(43)
        for _ in range(50):
            terms = [0.0 if rng.random() < 0.5 else rng.uniform(0.0, 3.0) for _ in range(40)]
            for n in range(1, 41):
                enclosure = cf_limit(ContinuedSpec(ARCTAN, terms[:n]), 1e-300).enclosure
                assert enclosure.analytic_width_bound <= support.arctan_error_bound(enclosure.depth + 1)
        for n in range(1, 41):
            enclosure = cf_limit(ContinuedSpec(ARCTAN, [0.0] * n), 1e-300).enclosure
            assert enclosure.depth == n
            assert enclosure.analytic_width_bound == support.arctan_error_bound(n + 1)

    def test_asymptotic_decay(self):
        bound = support.arctan_error_bound(10**4)
        ratio = bound * math.sqrt(2 * 10**4 / 3.0)
        assert 0.95 <= ratio <= 1.05
