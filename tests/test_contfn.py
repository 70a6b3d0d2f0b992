import math
import random

import pytest

import support
from nestrad import (
    ARCTAN,
    ContinuedSpec,
    OuterFunction,
    cf_eval,
    cf_limit,
)

# an outer function without a finite ceiling
LOG1P = OuterFunction(math.log1p, math.inf, "log1p")


class TestCfEval:
    def test_arctan_two_terms(self):
        spec = ContinuedSpec(ARCTAN, [1.0, 1.0])
        assert cf_eval(spec, 2) == pytest.approx(1.0602325257974874, rel=1e-14)

    def test_depth_zero(self):
        assert cf_eval(ContinuedSpec(ARCTAN, []), 0) == 0.0

    def test_unbounded_outer_one_term(self):
        spec = ContinuedSpec(LOG1P, [6.0, 216.0])
        assert cf_eval(spec, 1) == pytest.approx(math.log(7.0), rel=1e-15)

    def test_depth_beyond_terms(self):
        with pytest.raises(ValueError):
            cf_eval(ContinuedSpec(ARCTAN, [1.0]), 2)


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

    def test_needs_zero_fixed_point(self):
        shifted = OuterFunction(lambda x: math.sqrt(x) + 1.0, math.inf, "shifted")
        with pytest.raises(ValueError, match="fixed point"):
            cf_limit(ContinuedSpec(shifted, [0.0] * 2), 0.1)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            cf_limit(ContinuedSpec(ARCTAN, [0.0]), 0.1, depth_cap=0)


class TestCfLimit:
    def test_loose_tolerance_needs_one_term(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [1.0, 1.0]), 2.0)
        assert result.converged
        assert result.enclosure.depth == 1
        assert result.enclosure.analytic_width_bound == pytest.approx(math.pi / 2)

    def test_all_ones_to_5_percent(self):
        spec = ContinuedSpec(ARCTAN, [1.0] * 700)
        result = cf_limit(spec, 0.05)
        assert result.converged
        assert result.enclosure.depth == 602
        assert result.enclosure.width <= 0.05 + 1e-12
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

    def test_unconverged_when_terms_run_out(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [1.0] * 10), 0.05)
        assert not result.converged
        assert result.stop_reason == "tail_exhausted"
        assert result.enclosure.depth == 10
        assert result.enclosure.analytic_width_bound > 0.05

    def test_unconverged_at_depth_cap(self):
        result = cf_limit(ContinuedSpec(ARCTAN, [1.0] * 700), 0.05, depth_cap=10)
        assert result.stop_reason == "depth_cap"
        assert result.enclosure.depth == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            cf_limit(ContinuedSpec(ARCTAN, [1.0]), 0.0)
        with pytest.raises(ValueError):
            cf_limit(ContinuedSpec(ARCTAN, []), 0.1)


class TestErrorBoundValidity:
    def test_random_term_lists(self):
        rng = random.Random(42)
        bounds = [support.arctan_error_bound(n) for n in range(1, 41)]
        for _ in range(50):
            terms = [rng.uniform(0.0, 3.0) for _ in range(40)]
            spec = ContinuedSpec(ARCTAN, terms)
            deep = cf_eval(spec, 40)
            for n in range(1, 41):
                shallow = cf_eval(spec, n)
                assert abs(deep - shallow) <= bounds[n - 1] + 1e-12

    def test_asymptotic_decay(self):
        bound = support.arctan_error_bound(10**4)
        ratio = bound * math.sqrt(2 * 10**4 / 3.0)
        assert 0.95 <= ratio <= 1.05
