import math

import mpmath as mp
import pytest

import support
from nestrad import (
    PHI,
    CapTableTail,
    ConstantNormalizedTail,
    constant_normalized,
    constant_raw,
    explicit,
    golden,
    kappa_enclosure,
    kappa_limit,
    phi_pow,
    power_tower,
    ramanujan,
    sqrt_nested_scaled,
    u_spec,
)

ALL_FAMILIES = [
    golden(),
    power_tower(),
    ramanujan(),
    constant_raw(6.0),
    constant_normalized(2.0),
]


class TestPhiPow:
    def test_exponent_zero(self):
        assert phi_pow(0) == pytest.approx(PHI, rel=1e-15)

    def test_exponent_one_is_sqrt_phi(self):
        assert phi_pow(1) == pytest.approx(math.sqrt(PHI), rel=1e-15)
        assert phi_pow(1) == pytest.approx(1.272019649514069, rel=1e-14)

    def test_deep_exponent(self):
        assert phi_pow(20) - 1.0 == pytest.approx(4.589194635418181e-07, rel=1e-10)

    def test_phi_identity(self):
        assert PHI * PHI == pytest.approx(PHI + 1.0, abs=2 * math.ulp(PHI))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phi_pow(-1)


class TestKappaEnclosure:
    def test_golden_depth_5(self):
        enclosure = kappa_enclosure(golden(), 5)
        assert enclosure.lo <= PHI <= enclosure.hi
        assert enclosure.hi == pytest.approx(PHI, rel=1e-12)
        assert enclosure.width <= phi_pow(4) - 1.0 + enclosure.fp_slack
        assert enclosure.analytic_width_bound == pytest.approx(phi_pow(4) - 1.0, rel=1e-12)

    def test_finite_radical_collapses(self):
        enclosure = kappa_enclosure(explicit([6.0]), 2)
        root6 = math.sqrt(6.0)
        assert enclosure.lo == pytest.approx(root6, rel=1e-13)
        assert enclosure.hi == pytest.approx(root6, rel=1e-13)
        assert enclosure.analytic_width_bound == 0.0

    def test_power_tower_encloses_double_phi(self):
        enclosure = kappa_enclosure(power_tower(), 12)
        assert enclosure.contains(2.0 * PHI)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            kappa_enclosure(golden(), 0)

    def test_unbracketable_bounds_rejected(self):
        spec = explicit([1.0, 1.0], tail=CapTableTail(((3, 5.0, 1.0),)))
        with pytest.raises(ValueError, match="bracket"):
            kappa_enclosure(spec, 3)

    def test_cap_table_clamps_depth(self):
        spec = explicit([1.0, 1.0], tail=CapTableTail(((3, 0.9, 1.1),)))
        enclosure = kappa_enclosure(spec, 40)
        assert enclosure.depth == 3

    @pytest.mark.parametrize(
        "spec,exact",
        [
            (explicit([2.0, 3.0, 5.0]), lambda: support.mp_nested_sqrt_raw([2.0, 3.0, 5.0])),
            (constant_normalized(1.5), lambda: 1.5 * mp.phi),
            (constant_raw(2.5), lambda: (1 + mp.sqrt(11)) / 2),
            (u_spec(2.5), lambda: support.mp_u(2.5, 200)),
            (ramanujan(), lambda: mp.mpf(3)),
        ],
        ids=["zero", "constant_norm", "constant_raw", "omega", "ramanujan"],
    )
    def test_depth_2000_contains_exact_value(self, spec, exact):
        enclosure = kappa_enclosure(spec, 2000)
        assert enclosure.depth == 2000
        with mp.workdps(40):
            assert enclosure.lo <= exact() <= enclosure.hi

    def test_width_within_slacked_bound(self):
        for spec in ALL_FAMILIES:
            for depth in (2, 7, 19, 40):
                enclosure = kappa_enclosure(spec, depth)
                assert enclosure.width <= enclosure.analytic_width_bound + enclosure.fp_slack


class TestKappaLimit:
    def test_golden_to_1e8(self):
        result = kappa_limit(golden(), 1e-8)
        assert result.converged
        assert result.enclosure.mid == pytest.approx(1.6180339887498949, abs=1e-8)

    def test_constant_raw_6_fixed_point(self):
        result = kappa_limit(constant_raw(6.0), 1e-8)
        assert result.converged
        assert result.enclosure.mid == pytest.approx(3.0, abs=1e-8)
        assert result.enclosure.contains(3.0)

    def test_ramanujan_to_1e6(self):
        result = kappa_limit(ramanujan(), 1e-6)
        assert result.converged
        assert result.enclosure.depth <= 32
        assert result.enclosure.mid == pytest.approx(3.0, abs=1e-6)

    def test_all_zero_spec_converges_at_depth_1(self):
        result = kappa_limit(explicit([0.0, 0.0]), 1e-12)
        assert result.converged
        assert result.enclosure.depth == 1
        assert result.enclosure.lo == result.enclosure.hi == 0.0

    def test_depth_cap_returns_best_unconverged(self):
        result = kappa_limit(golden(), 1e-10, depth_cap=8)
        assert not result.converged
        assert result.enclosure.depth == 8
        assert result.enclosure.contains(PHI)

    def test_cap_table_cannot_converge(self):
        spec = explicit([1.0, 1.0], tail=CapTableTail(((3, 0.5, 1.5),)))
        result = kappa_limit(spec, 1e-9)
        assert not result.converged
        assert result.enclosure.depth == 3

    def test_smallest_adequate_depth(self):
        result = kappa_limit(golden(), 1e-8)
        shallower = kappa_enclosure(golden(), result.enclosure.depth - 1)
        assert shallower.width > 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa_limit(golden(), 0.0)
        with pytest.raises(ValueError):
            kappa_limit(golden(), 1e-6, depth_cap=0)


class TestKappaSubset:
    """kappa over a finite index subset: the fold over the selected normalized
    values, where the p-th selected value enters as value ** 2**p."""

    def test_single_index(self):
        assert support.norm_fold([2.0]) == pytest.approx(2.0, rel=1e-14)

    def test_two_indices(self):
        assert support.norm_fold([1.0, 1.0]) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_position_based_exponents(self):
        # sqrt(1**2 + sqrt(2**4))
        assert support.norm_fold([1.0, 2.0]) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_omega_marker_counts_as_position(self):
        # a transfinite value enters as the seed, at the next position
        assert support.norm_fold([1.0], seed=2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_empty_subset(self):
        assert support.norm_fold([]) == 0.0


class TestEnclosureInvariants:
    @pytest.mark.parametrize("spec", [golden(), power_tower()], ids=lambda s: s.family_name)
    def test_nesting(self, spec):
        # exact-sup tails: deeper enclosures nest inside shallower ones
        for depth in range(2, 24):
            outer = kappa_enclosure(spec, depth)
            inner = kappa_enclosure(spec, depth + 1)
            slack = outer.fp_slack + inner.fp_slack
            assert inner.lo >= outer.lo - slack
            assert inner.hi <= outer.hi + slack

    def test_width_law_all_families(self):
        for spec in ALL_FAMILIES:
            for depth in range(4, 65):
                enclosure = kappa_enclosure(spec, depth)
                bound = enclosure.analytic_width_bound + enclosure.fp_slack
                assert enclosure.width <= bound, (spec.family_name, depth)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_homogeneity(self, factor):
        values = [1.5, 0.25, 2.0]
        base = explicit(values, scale="norm", tail=ConstantNormalizedTail(1.0))
        plain = kappa_limit(base, 1e-12).enclosure.mid
        spec = explicit(
            [factor * v for v in values], scale="norm", tail=ConstantNormalizedTail(factor)
        )
        scaled = kappa_limit(spec, 1e-12 * factor).enclosure.mid
        assert scaled == pytest.approx(factor * plain, rel=1e-12)

    def test_lower_bound_dominates_prefix_max(self):
        spec = explicit([2.0, 3.5, 1.0], scale="norm", tail=ConstantNormalizedTail(0.5))
        result = kappa_limit(spec, 1e-9)
        assert result.enclosure.lo >= 3.5 - 1e-9

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("depth", [6, 10, 18])
    def test_omega_seed_shift_consistency(self, r, depth):
        # evaluating the transfinite coefficient directly as the seed agrees
        # with the enclosure to within its width bound
        spec = u_spec(r)
        enclosure = kappa_enclosure(spec, depth)
        approximant = sqrt_nested_scaled(spec.terms_lograw(depth - 1), r)
        bound = enclosure.analytic_width_bound + enclosure.fp_slack
        assert enclosure.lo - bound <= approximant <= enclosure.hi + bound
