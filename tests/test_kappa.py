import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import nestrad.kappa
import support
from nestrad import (
    PHI,
    CapTableTail,
    ConstantNormalizedTail,
    ConstantRawTail,
    OmegaTail,
    RamanujanTail,
    SequenceSpec,
    ZeroTail,
    constant_normalized,
    constant_raw,
    explicit,
    golden,
    kappa_enclosure,
    kappa_limit,
    power_tower,
    ramanujan,
    sqrt_nested_scaled,
    u_spec,
)
from nestrad.kappa import DEFAULT_DEPTH_CAP, _fp_pad, _predicted_depth, phi_pow

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

    def test_golden_width_bound_matches_mpmath(self):
        # exp(ln_lower) * expm1(ln_hi - ln_lower) keeps the bound within 2 ulp
        # of the exact phi ** 2**-(n-1) - 1, where a difference of two exps
        # near 1 cancels: 3.9% off at depth 50
        with mp.workdps(50):
            phi = (1 + mp.sqrt(5)) / 2
            for depth in range(20, 61):
                exact = phi ** (mp.mpf(2) ** (1 - depth)) - 1
                bound = kappa_enclosure(golden(), depth).analytic_width_bound
                assert abs(bound - exact) <= 2.0**-51 * exact, depth

    def test_finite_radical_collapses(self):
        enclosure = kappa_enclosure(explicit([6.0]), 2)
        root6 = math.sqrt(6.0)
        assert enclosure.lo == pytest.approx(root6, rel=1e-13)
        assert enclosure.hi == pytest.approx(root6, rel=1e-13)
        assert enclosure.analytic_width_bound == 0.0

    def test_power_tower_encloses_double_phi(self):
        enclosure = kappa_enclosure(power_tower(), 12)
        assert enclosure.lo <= 2.0 * PHI <= enclosure.hi

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

    @pytest.mark.parametrize("prefix", [[], [1.0, 1.0], [2.0, 0.5, 3.0]])
    @pytest.mark.parametrize("depth", [4, 50])
    def test_cap_table_clamps_every_depth_past_its_prefix(self, prefix, depth):
        spec = explicit(prefix, tail=CapTableTail(((len(prefix) + 1, 0.9, 1.1),)))
        enclosure = kappa_enclosure(spec, depth)
        assert enclosure.depth == len(prefix) + 1 == spec.max_depth()
        assert enclosure == kappa_enclosure(spec, len(prefix) + 1)

    def test_only_a_cap_table_clamps_depth(self):
        spec = explicit([1.0, 1.0], tail=ConstantRawTail(2.0))
        assert kappa_enclosure(spec, 50).depth == 50

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
        assert result.enclosure.lo <= 3.0 <= result.enclosure.hi

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
        assert result.stop_reason == "depth_cap"
        assert result.enclosure.depth == 8
        assert result.enclosure.lo <= PHI <= result.enclosure.hi

    def test_cap_table_cannot_converge(self):
        spec = explicit([1.0, 1.0], tail=CapTableTail(((3, 0.5, 1.5),)))
        result = kappa_limit(spec, 1e-9)
        assert not result.converged
        assert result.stop_reason == "tail_exhausted"
        assert result.enclosure.depth == 3

    def test_an_infinitely_wide_only_probe_is_returned(self):
        # both folds come within 48 ulp of the largest float, so the depth-3
        # pads round hi to inf.  The swamp depth, 3, ends the search at its
        # one probe, whose width is inf: the search still keeps it as its best
        spec = explicit([1419.565425786768, 2777.768851573536], scale="lograw", tail=ZeroTail())
        result = kappa_limit(spec, 1e300)
        assert result.stop_reason == "fp_floor"
        assert result.enclosure == kappa_enclosure(spec, 3)
        assert result.enclosure.hi == math.inf

    def test_converged_stop_reason(self):
        assert kappa_limit(golden(), 1e-8).stop_reason == "converged"

    def test_fp_floor_stops_before_the_cap(self):
        # no width reaches 1e-300; past depth 128 the padding alone is wider
        # than the depth-32 enclosure, so the search stops there
        result = kappa_limit(golden(), 1e-300, depth_cap=2048)
        assert result.stop_reason == "fp_floor"
        assert result.enclosure.depth == 32
        assert result.enclosure.lo <= PHI <= result.enclosure.hi
        deeper = [kappa_enclosure(golden(), depth) for depth in (64, 128, 256, 512, 1024, 2048)]
        assert all(e.width > result.enclosure.width for e in deeper)

    def test_unknown_stop_reason_rejected(self):
        with pytest.raises(ValueError, match="stop reason"):
            nestrad.KappaResult(kappa_enclosure(golden(), 4), "tired")

    def test_smallest_adequate_depth(self):
        result = kappa_limit(golden(), 1e-8)
        shallower = kappa_enclosure(golden(), result.enclosure.depth - 1)
        assert shallower.width > 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa_limit(golden(), 0.0)
        with pytest.raises(ValueError):
            kappa_limit(golden(), 1e-6, depth_cap=0)


class TestNormFoldOracle:
    """``support.norm_fold``, the oracle for kappa over a finite index subset:
    the p-th selected normalized value enters as value ** 2**p."""

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
    @pytest.mark.parametrize("spec", [golden(), power_tower()], ids=["golden", "powertower"])
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
                assert enclosure.width <= bound, (spec.tail, depth)

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
        approximant, _ = sqrt_nested_scaled(spec.terms_lograw(depth - 1), math.log(r), math.log(r))
        bound = enclosure.analytic_width_bound + enclosure.fp_slack
        assert enclosure.lo - bound <= approximant <= enclosure.hi + bound


class TestPredictedDepth:
    """The fit through the widths at depths 4 and 8 declines with 0."""

    def test_equal_widths_predict_nothing(self):
        assert _predicted_depth(1e-3, 1e-3, 1e-9, 256) == 0

    def test_growing_width_predicts_nothing(self):
        assert _predicted_depth(1e-4, 1e-3, 1e-9, 256) == 0

    def test_depth_past_the_limit_predicts_nothing(self):
        # a tenfold shrink every 4 levels reaches 1e-12 near depth 48
        assert 44 < _predicted_depth(1e-1, 1e-2, 1e-12, 256) <= 49
        assert _predicted_depth(1e-1, 1e-2, 1e-12, 40) == 0


class TestSearchWork:
    """Depths probed per kappa_limit call: deterministic, so they guard the search cost.

    Each branch of the search has a case: the fp floor ending the doubling; a
    confirmed guess; a guess lowered by the explicit bound, and a loose bound
    that is never read; the gallop up past a guess wider than tol; below a
    guess that overshoots, the bisection from 8, whose probes interpolate the
    log widths, over widths that still fall and widths that sit on the pad
    floor, with the guard that makes every third probe a midpoint; and a
    guess past a spec's swamp depth, which probes that depth, where an
    unconverged search stops.  The lists are exact: each probe must
    reach ``nestrad.kappa.kappa_enclosure`` through its module binding, or
    the benchmark's tracer would not see it.
    """

    @pytest.fixture
    def depths(self, monkeypatch):
        seen = []
        original = nestrad.kappa.kappa_enclosure

        def counted(spec, depth):
            seen.append(depth)
            return original(spec, depth)

        monkeypatch.setattr(nestrad.kappa, "kappa_enclosure", counted)
        return seen

    @pytest.fixture
    def bound_reads(self, monkeypatch):
        # every tail_bounds call: one per probe, and one per read of the explicit bound
        seen = []
        original = SequenceSpec.tail_bounds
        monkeypatch.setattr(SequenceSpec, "tail_bounds", lambda spec, n: seen.append(n) or original(spec, n))
        return seen

    def test_fp_floor_ends_the_doubling(self, depths):
        result = kappa_limit(golden(), 1e-300, depth_cap=2048)
        assert result.stop_reason == "fp_floor"
        assert depths == [4, 8, 16, 32]

    def test_fp_floor_holds_at_a_huge_cap(self, depths):
        # the floor holds at every depth, so the cap does not set how far the doubling runs
        result = kappa_limit(golden(), 1e-300, depth_cap=2**21)
        assert result.stop_reason == "fp_floor"
        assert depths == [4, 8, 16, 32]
        assert result.enclosure == kappa_limit(golden(), 1e-300, depth_cap=2**19).enclosure

    def test_predicted_depth_is_confirmed(self, depths):
        # the guess 17 is within tol and 16 is not
        result = kappa_limit(golden(), 1e-8)
        assert result.converged
        assert depths == [4, 8, 17, 16]

    def test_ramanujan_tight_tol_stops_at_the_floor(self, depths):
        # depth 64 is narrowest; the floor of depth 128 already exceeds its width
        result = kappa_limit(ramanujan(), 1e-15)
        assert result.stop_reason == "fp_floor"
        assert result.enclosure.depth == 64
        assert depths == [4, 8, 16, 32, 64]

    def test_local_rate_steps_back_from_a_missed_prediction(self, depths):
        # the guess 25 and 24 are both within tol; the line through the log
        # widths at 8 and 24 crosses tol short of 24, at 23, which is wider
        result = kappa_limit(ramanujan(), 1e-6)
        assert result.converged
        assert result.enclosure.depth == 24
        assert depths == [4, 8, 25, 24, 23]

    def test_loose_bound_is_not_read(self, depths, bound_reads):
        # golden's explicit bound is about 20 times its width at depth 8, so
        # the search reads no bound: one tail_bounds call per probe
        result = kappa_limit(golden(), 1e-8)
        assert result.converged
        assert depths == [4, 8, 17, 16]
        assert bound_reads == depths

    def test_explicit_bound_caps_the_guess(self, depths, bound_reads):
        # the fit from 4 and 8 guesses 44; the bound and the pads put 43, not
        # 42, within tol.  42 is within tol all the same, so the bisection
        # (8, 42) interpolates to 41, wider; seven reads of the bound found 43
        result = kappa_limit(ramanujan(), 5.8982524821815e-12)
        assert result.converged
        assert result.enclosure.depth == 42
        assert depths == [4, 8, 43, 42, 41]
        assert len(bound_reads) == len(depths) + 7

    def test_bisection_interpolates_below_a_missed_prediction(self, depths):
        # a loose bound (about 7.4 times the width at depth 8) leaves the guess
        # 19; 19 and 18 are within tol, so the search bisects (8, 18): the log
        # widths put tol at 15, wider, and then between 15 and 18 at 16, within
        result = kappa_limit(_FALLING_BELOW_GUESS, 2.3e-07)
        assert result.converged
        assert result.enclosure.depth == 16
        assert depths == [4, 8, 19, 18, 15, 16]

    def test_local_rate_clamps_at_a_guess_of_10(self, depths):
        # the guess 10 and 9 are both within tol; the bisection (8, 9) has
        # nothing between its ends, so nothing more is probed
        result = kappa_limit(ramanujan(), 0.024)
        assert result.converged
        assert result.enclosure.depth == 9
        assert depths == [4, 8, 10, 9]

    def test_flat_floor_is_bisected_from_8(self, depths):
        # no coefficient swamps, yet the widths at the guess 27 and at 26 sit
        # on the pad floor, 27 wider than 26, so the search bisects (8, 26):
        # two interpolated probes, 18 and 13, a midpoint, 11, and then 9
        assert _FLAT_FLOOR._swamp_depth() is None
        result = kappa_limit(_FLAT_FLOOR, 8.425984284144247e-09)
        assert result.converged
        assert result.enclosure.depth == 9
        assert depths == [4, 8, 27, 26, 18, 13, 11, 9]

    def test_every_third_probe_halves(self, depths):
        # the guess 40, the swamp depth, and 39 are within tol; the log widths
        # are convex from 8 to 39, so each line crosses tol just below its deep
        # end.  The third probe halves (8, 37), and the bisection (8, 39) ends
        # within 3 * ceil(log2(39 - 8)) probes, where interpolation alone takes 17
        assert _CONVEX_BELOW_GUESS._swamp_depth() == 40
        result = kappa_limit(_CONVEX_BELOW_GUESS, 8.571056640023895e-13)
        assert result.converged
        assert result.enclosure.depth == 23
        assert depths == [4, 8, 40, 39, 38, 37, 23, 22]
        assert len(depths[4:]) <= 3 * math.ceil(math.log2(39 - 8))

    def test_guess_past_the_swamp_depth_probes_it(self, depths):
        # the last coefficient swamps both seeds from depth 14 on, so the guess
        # 41 becomes 14, which is within tol where 13 is not
        spec = explicit([1.0] * 12 + [2.0], scale="norm")
        assert spec._swamp_depth() == 14
        result = kappa_limit(spec, 1e-12)
        assert result.converged
        assert result.enclosure.depth == 14
        assert depths == [4, 8, 14, 13]

    def test_unconverged_search_stops_at_the_swamp_depth(self, depths):
        # no width reaches 1e-300, and none past 14 is narrower than 14's
        result = kappa_limit(explicit([1.0] * 12 + [2.0], scale="norm"), 1e-300)
        assert result.stop_reason == "fp_floor"
        assert result.enclosure.depth == 14
        assert depths == [4, 8, 14]

    def test_gallop_up_from_a_missed_prediction(self, depths):
        # the guess 36 is wider than tol, and so are 37 and 38; the gallop
        # stops at 40, within tol, and bisection finds 39 wider
        result = kappa_limit(constant_raw(0.128009), 2.97e-13)
        assert result.converged
        assert depths == [4, 8, 36, 37, 38, 40, 39]

    def test_no_depth_evaluated_twice(self, depths):
        swamped = [
            explicit([1.0] * 12 + [2.0], scale="norm"),
            explicit([2.0, 0.0, 5.0, 0.0, 3e20], tail=ConstantRawTail(6.0)),
            explicit([0.5, 3.0] + [1.0] * 6 + [1.5], scale="norm", tail=ConstantNormalizedTail(1.0)),
            explicit([1.0] * 30 + [2.0, 0.5], scale="norm", tail=OmegaTail(0.5)),
        ]
        assert all(spec._swamp_depth() is not None for spec in swamped)
        for spec in ALL_FAMILIES + swamped + [_FALLING_BELOW_GUESS, _FLAT_FLOOR, _CONVEX_BELOW_GUESS]:
            for tol in (1e-4, 1e-9, 1e-13, 1e-15):
                depths.clear()
                kappa_limit(spec, tol)
                assert len(depths) == len(set(depths)), (spec.tail, tol, depths)


# the seed-101 benchmark's explicit norm prefix of length 15 with a constant_norm tail
_FLAT_FLOOR_NORMS = [
    1.4584361284823708, 2.8350832690219536, 1.9401151533044252, 1.0954291102523301, 0.0,
    1.5944536594406062, 1.7587637685218849, 2.6904469156659685, 0.33846867655834456, 0.0,
    0.8660981638694023, 0.4463181724183446, 0.12753709837389582, 0.0, 1.9328148105662903,
]
_FLAT_FLOOR = explicit(_FLAT_FLOOR_NORMS, scale="norm", tail=ConstantNormalizedTail(2.417086578086079))

_FALLING_BELOW_GUESS = explicit([0.0, 12.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], tail=ConstantNormalizedTail(0.97))

# the seed-103 benchmark's explicit norm prefix of length 62 with a constant_norm tail
_CONVEX_BELOW_GUESS_NORMS = [
    0.2768851009402066, 0.2659332360786586, 2.0520955219369963, 0.8490570776352513, 0.0,
    0.17364199308283557, 0.0, 1.470711095443627, 2.3794408941683525, 2.9892788909998558,
    2.9586772154017034, 0.1424869840617894, 0.947529067307726, 2.523586541765801, 0.53732051808939,
    0.8619208177031343, 2.314799510582054, 2.667740664527407, 0.5883520586681035,
    2.2816194595962678, 2.551942619108404, 2.526267746487173, 1.9366704541218027, 0.0,
    1.1347589355092094, 0.18674605838012992, 1.671559521711476, 0.8439446451880168,
    1.1604816779602856, 2.730213260407395, 1.5477863712791815, 2.8984163092385096,
    2.1657079053630923, 0.06239440550723008, 1.7784559259505612, 0.7342383903981272,
    2.0774394870990283, 0.0, 2.953873331773836, 0.15228095850321022, 0.0, 2.8113574294141843,
    1.0136585892501246, 1.4589403932037164, 2.8607255927458084, 0.4381709751554732,
    1.4843187436511116, 1.6601378694957396, 0.8835983146798668, 1.2734263528471312,
    1.2388384486035964, 1.253433277686431, 0.14078234180374893, 2.070688338913678,
    1.7298073882802685, 1.0654426550509761, 1.834041404529578, 0.0, 2.480990468395654,
    2.351059311506969, 0.13520422994215497, 2.8631589411679537,
]
_CONVEX_BELOW_GUESS = explicit(
    _CONVEX_BELOW_GUESS_NORMS, scale="norm", tail=ConstantNormalizedTail(1.1928864153639658)
)


def _tails():
    params = st.floats(0.0, 4.0)
    return st.one_of(
        st.just(ZeroTail()),
        params.map(ConstantNormalizedTail),
        st.floats(0.0, 50.0).map(ConstantRawTail),
        params.map(OmegaTail),
        st.just(RamanujanTail()),
        st.tuples(params, params).map(lambda pair: ("cap", min(pair), max(pair))),
    )


_VALUES = {
    "raw": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    "lograw": st.one_of(st.just(-math.inf), st.floats(-8.0, 8.0), st.floats(-300.0, 300.0)),
    "norm": st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
}


@st.composite
def _search_cases(draw):
    scale = draw(st.sampled_from(sorted(_VALUES)))
    values = draw(st.lists(_VALUES[scale], max_size=40))
    tail = draw(_tails())
    if isinstance(tail, tuple):
        tail = CapTableTail(((len(values) + 1, tail[1], tail[2]),))
    tol = 10.0 ** draw(st.floats(-15.0, -4.0))
    depth_cap = draw(st.integers(1, 300))
    return explicit(values, scale=scale, tail=tail), tol, depth_cap


class TestSearchAgainstScan:
    """kappa_limit checked against enclosures evaluated depth by depth."""

    @settings(max_examples=300)
    @given(_search_cases())
    def test_search_matches_exhaustive_scan(self, case):
        spec, tol, depth_cap = case
        result = kappa_limit(spec, tol, depth_cap)
        depth = result.enclosure.depth
        # whatever the stop reason, the search returns the public enclosure at its depth
        assert repr(result.enclosure) == repr(kappa_enclosure(spec, depth))
        if result.converged:
            assert result.enclosure.width <= tol
            if depth > 1:
                assert kappa_enclosure(spec, depth - 1).width > tol
            return
        assert result.stop_reason in ("depth_cap", "tail_exhausted", "fp_floor")
        # the doubling depths 4, 8, 16, ... below the cap, and the cap
        scan = [d for d in (2**k for k in range(2, 10)) if d < depth_cap] + [depth_cap]
        widths = [kappa_enclosure(spec, d).width for d in scan]
        assert min(widths) > tol
        assert result.enclosure.width <= min(widths)
        if result.stop_reason == "fp_floor":
            # the floor bounds every deeper width from below, and the search
            # stopped where it exceeds the returned width
            floor = nestrad.kappa._fp_floor
            last = min(depth_cap, 4 * depth, spec.max_depth() or depth_cap)
            for deeper in range(depth + 1, last + 1):
                width = kappa_enclosure(spec, deeper).width
                assert width >= floor(deeper, result.enclosure.lo), deeper
                if floor(deeper, result.enclosure.lo) > result.enclosure.width:
                    assert width >= result.enclosure.width, deeper

    @settings(max_examples=300)
    @given(_search_cases())
    @example((explicit([1.0] * 12 + [2.0], scale="norm"), 1e-13, 256))
    def test_a_result_at_the_swamp_depth_is_the_narrowest(self, case):
        # past a swamp depth c no width is narrower than c's, and the search probes none
        spec, tol, depth_cap = case
        swamp = spec._swamp_depth()
        probes = []
        enclosure_of = nestrad.kappa.kappa_enclosure
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nestrad.kappa, "kappa_enclosure", lambda s, d: probes.append(d) or enclosure_of(s, d))
            result = kappa_limit(spec, tol, depth_cap)
        if swamp is None:
            return
        assert max(probes) <= swamp, probes
        if result.enclosure.depth == swamp:
            for deeper in range(swamp + 1, min(4 * swamp, depth_cap) + 1):
                assert kappa_enclosure(spec, deeper).width >= result.enclosure.width, deeper


def _outcome(function, *args):
    # what a call returns, or the class and message of what it raises
    try:
        return repr(function(*args))
    except Exception as error:  # noqa: BLE001 - the class is the point
        return f"{type(error).__name__}: {error}"


def _caps_of(spec, tol, depth_cap):
    # (guess, capped guess) for each time a kappa_limit search caps its guess
    caps = []
    capped_guess = nestrad.kappa._capped_guess

    def recorded(gap, subject, tol, guess, hi_8):
        caps.append((guess, capped_guess(gap, subject, tol, guess, hi_8)))
        return caps[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nestrad.kappa, "_capped_guess", recorded)
        kappa_limit(spec, tol, depth_cap)
    return caps


_MAX = 1.7976931348623157e308
# specs at binary64's edge, each at the tolerances below: a cap-table row
# whose upper cap is the largest float, and lograw prefixes whose last ln
# alpha_k sits near 709.7, past which exp overflows
_EDGE_SPECS = [
    explicit([1.0] * 20, scale="norm", tail=CapTableTail(((21, 1.0, _MAX),))),
    explicit([], tail=CapTableTail(((1, 0.5, _MAX),))),
    *(
        explicit([-math.inf] * (k - 1) + [math.ldexp(ln_alpha, k)], scale="lograw", tail=tail)
        for ln_alpha in (709.7, 709.78)
        for k in (1, 9, 12, 20)
        for tail in (RamanujanTail(), OmegaTail(1.0), ZeroTail())
    ),
]
_EDGE_TOLS = (1e-12, 1e-4, 1e292, 1e295, 1e300)


class TestExplicitBoundCap:
    """The guess the explicit bound caps: its premise, its reads and its edges (the kappa docstring)."""

    @settings(max_examples=300)
    @given(_search_cases())
    # seeds e**644 apart: through expm1 the bound lost 2.9e-14 relative, more than the slack
    @example((explicit([], tail=CapTableTail(((1, 3.9413477433545844e-280, 2.0),))), 1e-4, 1))
    def test_width_within_the_slacked_bound(self, case):
        # the premise of the cap, on random specs at random depths 1-300
        spec, _, depth = case
        enclosure = kappa_enclosure(spec, depth)
        assert enclosure.width <= enclosure.analytic_width_bound + enclosure.fp_slack

    @settings(max_examples=300)
    @given(_search_cases())
    @example((ramanujan(), 5.8982524821815e-12, 256))
    def test_a_capped_guess_is_within_tol(self, case):
        spec, tol, depth_cap = case
        caps = _caps_of(spec, tol, depth_cap)
        assert len(caps) <= 1
        if not caps:
            event("no bound read")
            return
        guess, capped = caps[0]
        event("guess capped" if capped < guess else "guess kept")
        assert 8 < capped <= guess
        if capped < guess:
            assert kappa_enclosure(spec, capped).width <= tol

    def test_every_capped_guess_of_a_tight_bound_is_within_tol(self):
        # Ramanujan's and the omega tails' bounds are tight, so their searches read them
        capped_any = False
        for spec in (ramanujan(), u_spec(1.0), u_spec(2.5), u_spec(4.0)):
            for tol in (factor * 10.0**-exponent for exponent in range(4, 16) for factor in (1.0, 1.7, 3.1, 5.9)):
                for guess, capped in _caps_of(spec, tol, DEFAULT_DEPTH_CAP):
                    if capped < guess:
                        capped_any = True
                        assert kappa_enclosure(spec, capped).width <= tol, (spec.tail, tol, guess, capped)
        assert capped_any

    @pytest.mark.parametrize("spec", _EDGE_SPECS)
    def test_a_bound_read_raises_nothing_the_enclosure_would_not(self, spec):
        for depth in range(1, min(60, spec.max_depth() or 60) + 1):
            gap = _outcome(nestrad.kappa._analytic_gap, spec, depth)
            enclosure = _outcome(kappa_enclosure, spec, depth)
            if "Error" in gap:
                assert gap.split(":")[0] == enclosure.split(":")[0], depth

    @pytest.mark.parametrize("spec", _EDGE_SPECS + [ramanujan(), u_spec(2.5)])
    def test_answers_or_refuses_as_the_uncapped_search(self, spec, monkeypatch):
        # with no bound to read, kappa_limit runs the search without the cap
        cases = [(tol, cap) for tol in _EDGE_TOLS for cap in (DEFAULT_DEPTH_CAP, *range(1, 12))]
        capped = [_outcome(kappa_limit, spec, tol, cap) for tol, cap in cases]
        monkeypatch.setattr(nestrad.kappa, "_analytic_gap", None)
        assert capped == [_outcome(kappa_limit, spec, tol, cap) for tol, cap in cases]

    def test_the_edge_specs_read_the_bound(self, monkeypatch):
        # so the two tests above do not pass vacuously
        reads = []
        read = nestrad.kappa._analytic_gap
        monkeypatch.setattr(nestrad.kappa, "_analytic_gap", lambda spec, n: reads.append(n) or read(spec, n))
        for spec in _EDGE_SPECS:
            for tol in _EDGE_TOLS:
                _outcome(kappa_limit, spec, tol)
        assert reads


def _explicit_bound_depth(spec, tol, depth_cap, hi):
    """N(tol): the shallowest depth, up to the search's limit, that the explicit bound puts within tol.

    The cap's proof in the kappa docstring: with hi an upper end of an
    enclosure of the radical, a depth n with A(n) + 2.5 * pad(n, (hi + tol)
    * (1 + 2**-20)) <= tol is within tol.  None where no depth is.
    """
    limit = min(d for d in (depth_cap, spec.max_depth(), spec._swamp_depth()) if d is not None)
    magnitude = (hi + tol) * (1.0 + 2.0**-20)
    for depth in range(1, limit + 1):
        if nestrad.kappa._analytic_gap(spec, depth) + 2.5 * _fp_pad(depth, magnitude) <= tol:
            return depth
    return None


class TestExplicitBoundDepth:
    """No search converges deeper than N(tol), the depth the paper's explicit bound allows."""

    @staticmethod
    def _check(spec, tol, depth_cap):
        result = kappa_limit(spec, tol, depth_cap)
        bound = _explicit_bound_depth(spec, tol, depth_cap, result.enclosure.hi)
        if bound is not None:
            assert result.converged and result.enclosure.depth <= bound, (result, bound)
        return bound

    @settings(max_examples=300)
    @given(_search_cases())
    def test_random_specs(self, case):
        event("N(tol) exists" if self._check(*case) is not None else "no N(tol)")

    def test_named_families_and_u(self):
        specs = [
            golden(), power_tower(), ramanujan(), constant_raw(6.0), constant_normalized(2.0),
            *(u_spec(r) for r in (0.5, 1.0, 2.5, 40.0, 1e6)),
        ]
        bounded = [
            self._check(spec, 10.0**-exponent, DEFAULT_DEPTH_CAP) is not None
            for spec in specs
            for exponent in range(1, 16)
        ]
        assert sum(bounded) >= len(bounded) // 2  # the property is not vacuous here


def _raw_folds(spec, depth):
    # the two folds that kappa_enclosure pads, from its seeds
    ln_lower, ln_cap = spec.tail_bounds(depth)
    ln_hi = ln_cap + math.ldexp(math.log(PHI), 1 - depth)
    ln_hi = math.nextafter(ln_hi, math.inf) if ln_cap != -math.inf else ln_hi
    return sqrt_nested_scaled(spec.terms_lograw(depth - 1), ln_lower, max(ln_hi, ln_lower))


def _swamps(spec, k):
    # the swamp test of the kappa docstring for coefficient k, from its definition
    lower, upper = spec.tail.ln_bounds(len(spec.prefix) + 1)
    most = max([lower, upper, *spec.prefix[k:]])
    ceiling = math.nextafter(most + math.ldexp(math.log(PHI), -k), math.inf)
    return k <= 1074 and (ceiling - spec.prefix[k - 1]) / 2.0**-k <= -40.0


_HUGE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
_SWAMP_VALUES = {
    "raw": st.one_of(st.just(0.0), st.floats(0.0, 50.0), _HUGE),
    "lograw": st.one_of(st.just(-math.inf), st.floats(-8.0, 8.0), st.floats(-690.0, 690.0)),
    "norm": st.one_of(st.just(0.0), st.floats(0.0, 4.0), _HUGE),
}
_SWAMP_TAILS = st.one_of(
    st.just(ZeroTail()),
    st.one_of(st.floats(0.0, 4.0), _HUGE).map(ConstantNormalizedTail),
    st.one_of(st.just(0.0), st.floats(-6.0, 300.0).map(lambda exponent: 10.0**exponent)).map(ConstantRawTail),
    st.floats(0.0, 4.0).map(OmegaTail),
    st.just(RamanujanTail()),
)


@st.composite
def _swamp_specs(draw):
    scale = draw(st.sampled_from(sorted(_SWAMP_VALUES)))
    values = draw(st.lists(_SWAMP_VALUES[scale], min_size=1, max_size=64))
    return explicit(values, scale=scale, tail=draw(_SWAMP_TAILS))


class TestSwampDepth:
    """The swamp depth of the kappa docstring: its test, its premise and its consequence."""

    @settings(max_examples=300)
    @given(_swamp_specs())
    def test_is_the_shallowest_coefficient_that_swamps(self, spec):
        swamping = [k for k in range(1, len(spec.prefix) + 1) if _swamps(spec, k)]
        assert spec._swamp_depth() == (swamping[0] + 1 if swamping else None)

    @settings(max_examples=150, deadline=None)
    @given(_swamp_specs())
    @example(explicit([1.0] * 12 + [2.0], scale="norm"))
    @example(explicit([1e300, 1.0], scale="norm", tail=ConstantRawTail(1e300)))
    def test_folds_agree_and_widths_grow_from_it(self, spec):
        swamp = spec._swamp_depth()
        assume(swamp is not None)
        # the short fold, the settling one from 64 levels and the past-1074 maximum
        depths = sorted({swamp, swamp + 1, 2 * swamp, 70, 1100})
        at_swamp = _raw_folds(spec, swamp)
        widths = []
        for depth in depths:
            lo_raw, hi_raw = _raw_folds(spec, depth)
            assert repr((lo_raw, hi_raw)) == repr((at_swamp[0], at_swamp[0])), depth
            widths.append(kappa_enclosure(spec, depth).width)
        assert widths == sorted(widths)

    @settings(max_examples=150)
    @given(_swamp_specs())
    def test_a_coefficient_one_float_under_the_threshold_does_not_swamp(self, spec):
        swamp = spec._swamp_depth()
        assume(swamp is not None)
        k, tail = swamp - 1, spec.tail
        # zero the coefficients before k, so that only k and those after it can swamp
        zeroed = (-math.inf,) * (k - 1) + spec.prefix[k - 1:]
        assert SequenceSpec(zeroed, tail)._swamp_depth() == swamp
        lower, upper = tail.ln_bounds(len(zeroed) + 1)
        most = max([lower, upper, *zeroed[k:]])
        assume(most > -math.inf)  # a zero ceiling: every coefficient above it swamps
        # the least ln alpha_k that swamps, from an estimate a few floats off
        ceiling = math.nextafter(most + math.ldexp(math.log(PHI), -k), math.inf)
        least = ceiling + 40.0 * 2.0**-k
        passes = lambda ln_alpha: (ceiling - ln_alpha) / 2.0**-k <= -40.0
        while not passes(least):
            least = math.nextafter(least, math.inf)
        while passes(math.nextafter(least, -math.inf)):
            least = math.nextafter(least, -math.inf)
        assume(least < 709.0)
        for ln_alpha, swamps in ((least, True), (math.nextafter(least, -math.inf), False)):
            nudged = SequenceSpec(zeroed[:k - 1] + (ln_alpha,) + zeroed[k:], tail)._swamp_depth()
            assert (nudged == swamp) if swamps else (nudged is None or nudged > swamp), ln_alpha

    @settings(max_examples=300)
    @given(_SWAMP_TAILS, st.integers(0, 1100))
    def test_no_seed_log_exceeds_its_maximum_past_the_prefix(self, tail, length):
        # the TailModel premise: the larger seed log does not grow with depth
        most = max(tail.ln_bounds(length + 1))
        for depth in range(length + 2, length + 301):
            assert max(tail.ln_bounds(depth)) <= most, depth


def _probe_path_cases():
    # a fixed list: named families, then explicit prefixes on every scale,
    # with zeros, followed by every tail kind
    rng = random.Random(1201)
    named = [golden(), power_tower(), ramanujan(), constant_raw(6.0), constant_normalized(2.0), u_spec(2.5)]
    cases = [(spec, tol) for spec in named for tol in (1e-14, 1e-9, 1e-4)]
    draw = {
        "raw": lambda: rng.choice((0.0, rng.uniform(0.0, 50.0))),
        "lograw": lambda: rng.choice((-math.inf, rng.uniform(-8.0, 8.0), rng.uniform(-300.0, 300.0))),
        "norm": lambda: rng.choice((0.0, rng.uniform(0.0, 4.0))),
    }
    tails = [
        lambda p: ZeroTail(),
        lambda p: ConstantNormalizedTail(rng.uniform(0.0, 4.0)),
        lambda p: ConstantRawTail(rng.uniform(0.0, 50.0)),
        lambda p: OmegaTail(rng.uniform(0.0, 4.0)),
        lambda p: RamanujanTail(),
        lambda p: CapTableTail(((p + 1, *sorted((rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)))),)),
    ]
    while len(cases) < 102:
        scale = ("raw", "lograw", "norm")[len(cases) % 3]
        values = [draw[scale]() for _ in range(rng.randint(0, 12))]
        tail = tails[len(cases) % len(tails)](len(values))
        cases.append((explicit(values, scale=scale, tail=tail), 10.0 ** rng.uniform(-14.0, -4.0)))
    return cases


class TestProbePath:
    """Every fold of a search is one kappa_enclosure call, the probe the bench counts."""

    def test_every_fold_comes_from_an_enclosure(self, monkeypatch):
        enclosure_of, fold_of = nestrad.kappa.kappa_enclosure, nestrad.kappa.sqrt_nested_scaled
        probes, folds, open_probes = [], [], []

        def counted_enclosure(spec, depth):
            probes.append(depth)
            open_probes.append(depth)
            try:
                return enclosure_of(spec, depth)
            finally:
                open_probes.pop()

        def counted_fold(*args):
            folds.append(len(open_probes) == 1)
            return fold_of(*args)

        monkeypatch.setattr(nestrad.kappa, "kappa_enclosure", counted_enclosure)
        monkeypatch.setattr(nestrad.kappa, "sqrt_nested_scaled", counted_fold)
        for spec, tol in _probe_path_cases():
            probes.clear()
            folds.clear()
            result = kappa_limit(spec, tol)
            assert probes and len(folds) == len(probes), (spec, tol)
            assert all(folds), (spec, tol)
            assert result.enclosure == enclosure_of(spec, result.enclosure.depth), (spec, tol)


def _reference_enclosure(spec, depth):
    # kappa_enclosure's arithmetic written with max and abs
    limit = spec.max_depth()
    if limit is not None:
        depth = min(depth, limit)
    ln_lower, ln_cap = spec.tail_bounds(depth)
    ln_hi = ln_cap + math.ldexp(math.log(PHI), 1 - depth)
    ln_hi = math.nextafter(ln_hi, math.inf) if ln_cap != -math.inf else ln_hi
    lo_raw, hi_raw = sqrt_nested_scaled(spec.terms_lograw(depth - 1), ln_lower, max(ln_hi, ln_lower))
    pad = _fp_pad(depth, max(abs(hi_raw), abs(lo_raw))) if hi_raw != 0.0 else 0.0
    lo = max(0.0, lo_raw - pad)
    # exp(ln_hi) - exp(ln_lower), through expm1 where the logs are at most 1 apart
    if ln_hi - ln_lower > 1.0 or ln_lower == -math.inf:
        gap = math.exp(ln_hi) - math.exp(ln_lower)
    else:
        gap = math.exp(ln_lower) * math.expm1(ln_hi - ln_lower)
    return (lo, max(hi_raw + pad, lo), depth, max(0.0, gap), 2.5 * pad)


_ZERO = {"raw": 0.0, "lograw": -math.inf, "norm": 0.0}


@st.composite
def _enclosure_cases(draw):
    scale = draw(st.sampled_from(sorted(_VALUES)))
    kind = draw(st.sampled_from(("any", "zeros", "above_cap")))
    if kind == "zeros":
        # a zero fold (zero tail) or a lo clamped at 0 (lower seed 0, cap above it)
        values = [_ZERO[scale]] * draw(st.integers(0, 6))
        upper = draw(st.sampled_from((0.0, 0.5, 3.0)))
        tail = CapTableTail(((len(values) + 1, 0.0, upper),)) if upper else ZeroTail()
    else:
        values = draw(st.lists(_VALUES[scale], max_size=6))
        tail = draw(_tails())
        if kind == "above_cap":
            # a lower seed above the golden-boosted cap, inside the 1e-12 allowance
            upper = draw(st.floats(0.1, 4.0))
            lower = upper * phi_pow(len(values)) * (1.0 + draw(st.floats(0.01, 0.99)) * 1e-12)
            tail = CapTableTail(((len(values) + 1, lower, upper),))
        elif isinstance(tail, tuple):
            tail = CapTableTail(((len(values) + 1, tail[1], tail[2]),))
    return explicit(values, scale=scale, tail=tail), draw(st.integers(1, 300))


# at depth 11, a lower seed 5e-13 above the golden-boosted cap of 1.0
_ABOVE_THE_BOOSTED_CAP = CapTableTail(((11, math.exp(math.ldexp(nestrad.kappa.LN_PHI, -10) + 5e-13), 1.0),))


class TestEnclosureArithmetic:
    @settings(max_examples=400)
    @given(_enclosure_cases())
    # seeds over e**709 apart, where expm1 would overflow: the width bound is the plain difference
    @example((explicit([], tail=CapTableTail(((1, 1e-200, 1e200),))), 1))
    # the last depth whose golden boost is above 0, and the first two where it underflows
    @example((constant_raw(6.0), 1074))
    @example((constant_raw(6.0), 1075))
    @example((golden(), 1100))
    def test_matches_the_reference_bit_for_bit(self, case):
        spec, depth = case
        enclosure = kappa_enclosure(spec, depth)
        fields = (enclosure.lo, enclosure.hi, enclosure.depth, enclosure.analytic_width_bound, enclosure.fp_slack)
        # repr tells -0.0 from 0.0
        assert repr(fields) == repr(_reference_enclosure(spec, depth))

    @settings(max_examples=300)
    @given(_enclosure_cases())
    # a lower seed 5e-13 above the boosted cap, inside the enclosure's 1e-12 allowance: both read 0.0
    @example((explicit([-math.inf] * 10, scale="lograw", tail=_ABOVE_THE_BOOSTED_CAP), 11))
    # reads of inf: seeds that cannot bracket, a boosted cap whose exp overflows, +inf seeds
    @example((explicit([1.0], tail=CapTableTail(((2, 5.0, 1.0),))), 2))
    @example((explicit([], tail=CapTableTail(((1, 1e308, 1.7e308),))), 1))
    @example((constant_raw(1e308), 4))
    def test_a_bound_read_is_the_enclosures_bound(self, case):
        # the explicit-bound cap's read, bit for bit, and inf only where the enclosure is refused
        spec, depth = case
        depth = min(depth, spec.max_depth() or depth)
        gap = nestrad.kappa._analytic_gap(spec, depth)
        enclosed = _outcome(lambda: kappa_enclosure(spec, depth).analytic_width_bound)
        if gap == math.inf:
            assert enclosed.startswith("ValueError: "), enclosed
        else:
            assert repr(gap) == enclosed
