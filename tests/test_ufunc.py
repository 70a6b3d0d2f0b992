import inspect
import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import nestrad.kappa
import nestrad.ufunc
import support
from nestrad import (
    DEFAULT_DEPTH_CAP,
    PHI,
    Enclosure,
    OmegaTail,
    SupQuery,
    sqrt_nested_scaled,
    sup_enclosure,
    u_eval,
    u_inverse,
    u_spec,
    u_table,
)

U_OF_2 = 2.2642652660462583  # deep-truncation oracle, stable from depth 16 on


def assert_solves(y, tol, r):
    """|U(r) - y| <= tol, decided by a depth-80 truncation at 60 digits."""
    depth = 80
    with mp.workdps(60):
        # U(r) lies in [truncation, truncation + r * 2**-depth]
        lower = support.mp_u(r, depth, 60, as_float=False)
        upper = lower + mp.mpf(r) * mp.mpf(2) ** -depth
        assert mp.mpf(y) - tol <= lower and upper <= mp.mpf(y) + tol, (y, tol, r)


class TestUEval:
    def test_u_of_one_is_phi(self):
        enclosure = u_eval(1.0, 1e-9)
        assert enclosure.width <= 1e-9
        assert enclosure.lo <= PHI <= enclosure.hi

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.9])
    def test_constant_below_one(self, r):
        enclosure = u_eval(r, 1e-6)
        assert enclosure.mid == pytest.approx(PHI, abs=1e-6)
        assert enclosure.lo <= support.mp_u(r, 64) <= enclosure.hi

    def test_u_of_two(self):
        enclosure = u_eval(2.0, 1e-4)
        assert enclosure.lo <= U_OF_2 <= enclosure.hi
        assert enclosure.mid == pytest.approx(U_OF_2, abs=1e-4)
        # oracle self-check: deep truncations agree well inside the tolerance
        assert abs(support.mp_u(2.0, 8) - support.mp_u(2.0, 16)) <= 1e-4

    def test_spec_shape(self):
        spec = u_spec(3.0)
        assert spec.tail == OmegaTail(3.0)
        assert spec.prefix == ()
        assert spec.tail_bounds(7) == (math.log(3.0), math.log(3.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            u_eval(-1.0, 1e-6)
        with pytest.raises(ValueError):
            u_eval(math.inf, 1e-6)


class TestUInverse:
    def test_at_phi(self):
        assert u_inverse(PHI, 1e-6) == 1.0

    def test_slightly_below_phi_clamps(self):
        assert u_inverse(PHI - 5e-7, 1e-6) == 1.0

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            u_inverse(1.0, 1e-6)

    def test_round_trip_of_u_of_two(self):
        r = u_inverse(U_OF_2, 1e-3)
        assert r == pytest.approx(2.0, abs=5e-3)

    @pytest.mark.parametrize("y", [PHI, 2.0, 3.0, 5.0, 10.0, 100.0])
    def test_round_trip(self, y):
        r = u_inverse(y, 1e-6)
        assert abs(u_eval(r, 1e-7).mid - y) <= 2e-6

    @given(
        y=st.floats(min_value=PHI, max_value=1e3),
        tol=st.floats(min_value=-9.0, max_value=-4.0).map(lambda e: 10.0**e),
    )
    def test_contract_against_oracle(self, y, tol):
        assert_solves(y, tol, u_inverse(y, tol))

    @pytest.mark.parametrize("y,tol", [(1e300, 1e-6), (10.0, 1e-15)])
    def test_refuses_below_float_spacing(self, y, tol):
        # floats near the root are more than tol/2 apart
        with pytest.raises(RuntimeError, match="cannot be bracketed"):
            u_inverse(y, tol)

    def test_refuses_at_depth_cap(self):
        # depth-4 enclosures are ~0.2 wide: a probe near the root stays
        # undecided at the cap and must not be returned as the answer
        with pytest.raises(RuntimeError, match="within depth 4"):
            u_inverse(3.0, 1e-9, depth_cap=4)
        assert u_inverse(3.0, 1e-6, depth_cap=DEFAULT_DEPTH_CAP) == u_inverse(3.0, 1e-6)

    def test_flat_region(self):
        # y - phi = 1e-10: the root is near 1 + 1e-6, where U's slope is about 1e-4
        y = PHI + 1e-10
        assert_solves(y, 3e-12, u_inverse(y, 3e-12))


class TestFallback:
    """Where the predicted probes do not settle the search, certified bisection does or refuses."""

    def test_near_the_pad_floor(self):
        # two pads nearly fill tol/4: the prediction still settles y = 1e3,
        # while at y = 5 no predicted probe ties and bisection brackets it
        assert_solves(1e3, 1e-9, u_inverse(1e3, 1e-9))
        assert_solves(5.0, 3e-12, u_inverse(5.0, 3e-12))

    @pytest.mark.parametrize("y,tol,depth_cap", [(3.0, 1e-6, 23), (1e3, 1e-9, 43)])
    def test_depth_cap_below_the_predicted_depth(self, y, tol, depth_cap):
        # the predicted depths are 25 and 44; the capped prediction misses
        assert nestrad.ufunc._probe_depth(y, tol, DEFAULT_DEPTH_CAP) > depth_cap
        assert_solves(y, tol, u_inverse(y, tol, depth_cap))

    @pytest.mark.parametrize("depth_cap", [20, 22])
    def test_capped_prediction_wider_than_a_tie_is_no_answer(self, depth_cap):
        # the predicted probe holds y = 3 but is 2.4e-6 (cap 20) or 6.0e-7 (cap 22) wide: no tie
        with pytest.raises(RuntimeError, match=f"within depth {depth_cap}"):
            u_inverse(3.0, 1e-6, depth_cap)

    @given(
        y=st.floats(min_value=math.log(2.0), max_value=math.log(1e40)).map(math.exp),
        ulps=st.floats(min_value=math.log(2.0), max_value=math.log(1e6)).map(math.exp),
        depth_cap=st.sampled_from([30, 64, 256]),
    )
    def test_pad_floor_region(self, y, ulps, depth_cap):
        # tolerances of a few ulp to a million ulp of the root, where the
        # pads of enclosures near it approach tol/4: answered right or refused
        tol = ulps * math.ulp(y / PHI)
        try:
            r = u_inverse(y, tol, depth_cap)
        except RuntimeError:
            return
        assert_solves(y, tol, r)

    @pytest.mark.parametrize("excess", [1e-12, 1e-6, 1.4, 98.0])
    @pytest.mark.parametrize(
        "guess", [lambda y: 0.5, lambda y: 2.0 * y, lambda y: y], ids=["half", "twice_y", "y"]
    )
    def test_without_predictions(self, monkeypatch, guess, excess):
        # the predicted probe lies outside the bracket, at or below 1 or at or above r_hi = y
        monkeypatch.setattr(nestrad.ufunc, "_predicted_probe", lambda y, *_: guess(y))
        y = PHI + excess
        assert_solves(y, 1e-6, u_inverse(y, 1e-6))
        _, hi = sup_enclosure(SupQuery(1.0, excess))
        with mp.workdps(60):  # U(hi) reaches excess + phi, so hi bounds the supremum
            target = mp.mpf(excess) + (1 + mp.sqrt(5)) / 2
            assert support.mp_u(hi, 128, 60, as_float=False) >= target


def fold_inverse_oracle(y, depth):
    """The peel as a while loop over k: the reference for ``_fold_inverse``."""
    v, k = y, 1
    while k < depth and v <= 2.0**26:
        if v <= 1.0:
            return 1.0
        v = v * v - 1.0
        k += 1
    return math.exp(math.ldexp(math.log(v), 1 - k))


def probe_depth_oracle(y, tol, depth_cap):
    """``_probe_depth`` with each width from kappa's pad, recomputed per test: its reference."""

    def width(n):
        return y * math.expm1(math.ldexp(nestrad.kappa.LN_PHI, 1 - n)) + 2.0 * nestrad.kappa._fp_pad(n, y)

    depth = max(1, 1 + math.ceil(math.log2(nestrad.kappa.LN_PHI / math.log1p(0.125 * tol / y))))
    while depth < depth_cap and width(depth) > 0.25 * tol and width(depth + 1) < width(depth):
        depth += 1
    return max(min(4, depth_cap), min(depth, depth_cap))


def outcome(function, *args):
    """The value of a call, or the type of the exception it raised."""
    try:
        return function(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


# targets of U^-1: log-uniform from phi to 1e300, and the flat region, y - phi below 1e-10
TARGETS = st.one_of(
    st.floats(math.log(PHI), math.log(1e300)).map(math.exp),
    st.floats(-16.0, -10.0).map(lambda exponent: PHI + 10.0**exponent),
)


class TestFoldInverse:
    """The closed-form peel's round trip through the fold, and two early returns no search reaches."""

    @settings(max_examples=500)
    @given(TARGETS, st.integers(1, 1100))
    def test_matches_the_loop_oracle(self, y, depth):
        assert nestrad.ufunc._fold_inverse(y, depth).hex() == fold_inverse_oracle(y, depth).hex()

    @settings(max_examples=500)
    @given(TARGETS, st.floats(-15.0, 5.0).map(lambda exponent: 10.0**exponent), st.integers(1, 256))
    def test_probe_depth_matches_the_loop_oracle(self, y, tol, depth_cap):
        # a tol far below y overflows the first guess in both (the spacing check refuses it first)
        expected = outcome(probe_depth_oracle, y, tol, depth_cap)
        assert outcome(nestrad.ufunc._probe_depth, y, tol, depth_cap) == expected

    @given(
        st.one_of(
            st.floats(math.log10(PHI * (1.0 + 1e-15)), 300.0).map(lambda exponent: 10.0**exponent),
            st.floats(-15.0, -9.0).map(lambda exponent: PHI + 10.0**exponent),  # the flat region
        ),
        st.integers(1, 64),
    )
    def test_round_trip_through_the_fold(self, y, depth):
        root = nestrad.ufunc._fold_inverse(y, depth)
        if root != 1.0:  # not clamped: the depth-n fold of n - 1 ones over root gives y back
            back = sqrt_nested_scaled([0.0] * (depth - 1), math.log(root), math.log(root))[0]
            # 16 ulp per level, plus the last step's exp of a rounded log: ln(y) + 2 ulp
            bound = (16 * depth + math.log(y) + 2.0) * math.ulp(y)
            assert abs(back - y) <= bound, (y, depth, root, back)

    def test_below_the_fold_of_one(self):
        # F_10(1) is within 1e-3 of phi > 1.5: a peel reaches v <= 1
        assert nestrad.ufunc._fold_inverse(1.5, 10) == 1.0

    def test_infinite_target(self):
        assert nestrad.ufunc._fold_inverse(math.inf, 8) == math.inf


class TestWorkCounts:
    """Enclosures spent per call: deterministic, so they guard the probe cost."""

    @pytest.fixture
    def depths(self, monkeypatch):
        seen = []
        original = nestrad.kappa.kappa_enclosure

        def counted(spec, depth):
            seen.append(depth)
            return original(spec, depth)

        # both bindings, so a probe routed through kappa_limit is counted too
        monkeypatch.setattr(nestrad.ufunc, "kappa_enclosure", counted, raising=False)
        monkeypatch.setattr(nestrad.kappa, "kappa_enclosure", counted)
        return seen

    def test_u_inverse(self, depths):
        u_inverse(3.0, 1e-6)
        assert 1 <= len(depths) <= 2

    def test_sup_enclosure(self, depths):
        sup_enclosure(SupQuery(1.0, 0.1))
        assert 1 <= len(depths) <= 4

    def test_every_predicted_probe_is_one_enclosure(self, depths):
        # u_inverse ties at its predicted depth; sup_enclosure's first probe
        # decides at it and certifies its upper end, with no doubling from
        # depth 4 and no second probe
        u_inverse(3.0, 1e-6)
        assert depths == [25]
        depths.clear()
        sup_enclosure(SupQuery(1.0, 0.1))
        assert depths == [33]
        assert list(inspect.signature(u_eval).parameters) == ["r", "tol", "depth_cap"]

    def test_one_probe_settles_a_root_within_the_pads(self, depths):
        # y = 5559231.3...: the root lies within the depth-33 pads of y, so
        # F_n^-1(y + pad + noise) lands above r_hi = y; the probe clamped to
        # the float below y ties there, and the answer stays sound
        m_h, epsilon = 33.82195200093947, 188024000.11313304
        _, hi = sup_enclosure(SupQuery(m_h, epsilon))
        assert depths == [33]
        with mp.workdps(60):
            target = mp.mpf(epsilon) / mp.mpf(m_h) + (1 + mp.sqrt(5)) / 2
            assert support.mp_u(mp.mpf(hi) / mp.mpf(m_h), 128, 60, as_float=False) >= target

    def test_one_enclosure_per_supremum(self, depths):
        # epsilon / m_h log-uniform from 1e-16 (the flat region) to 1e300;
        # above about 2.5e6 the root lies within the pads of y
        rng, checked = random.Random(7), 0
        for _ in range(2000):
            m_h = 10.0 ** rng.uniform(-6.0, 6.0)
            epsilon = m_h * 10.0 ** rng.uniform(-16.0, 300.0)
            depths.clear()
            _, hi = sup_enclosure(SupQuery(m_h, epsilon))
            assert len(depths) == 1, (m_h, epsilon, depths)
            if epsilon / m_h > 1e6 and checked < 5:
                checked += 1
                # U(r) - r is about 1 / (2r): enough digits to resolve it at r = 1e300
                with mp.workdps(700):
                    target = mp.mpf(epsilon) / mp.mpf(m_h) + (1 + mp.sqrt(5)) / 2
                    assert support.mp_u(mp.mpf(hi) / mp.mpf(m_h), 128, 700, as_float=False) >= target
        assert checked == 5

    def test_float_spacing_refusal_is_cheap(self, depths):
        with pytest.raises(RuntimeError):
            u_inverse(1e300, 1e-6)
        assert len(depths) <= 7

    @pytest.mark.parametrize("y,tol", [(1e8, 1e-6), (1e6, 1e-9), (1e20, 1e5)])
    def test_pad_floor_inputs_still_refuse(self, depths, y, tol):
        # floats are close enough, but every enclosure of U near the root is
        # padded wider than a tie or a tol/2 bracket allows: a bisection
        # probe stays undecided up to the cap (22 to 24 enclosures)
        with pytest.raises(RuntimeError, match="within depth 256"):
            u_inverse(y, tol)
        assert len(depths) <= 32

    def test_probes_stay_within_the_depth_cap(self, depths):
        r = u_inverse(3.0, 1e-6, depth_cap=24)
        assert max(depths) == 24
        assert abs(support.mp_u(r, 80) - 3.0) <= 1e-6


class TestUShape:
    def test_sandwich_on_grid(self):
        for i in range(20):
            r = 1.0 + i
            enclosure = u_eval(r, 1e-9)
            assert enclosure.lo > r
            assert enclosure.hi <= r * PHI * (1 + 1e-12) + 1e-12

    def test_lipschitz_on_grid(self):
        samples = [(r, u_eval(r, 1e-9)) for r in [1.0, 1.5, 2.0, 4.0, 8.0, 16.0]]
        for (r1, e1), (r2, e2) in zip(samples, samples[1:]):
            assert abs(e2.mid - e1.mid) <= abs(r2 - r1) + e1.width + e2.width

    def test_strict_monotonicity(self):
        grid = [1.0 + 0.1 * i for i in range(11)]
        enclosures = [u_eval(r, 1e-9) for r in grid]
        for left, right in zip(enclosures, enclosures[1:]):
            assert right.lo > left.hi  # non-overlap, not just midpoints

    def test_matches_oracle_above_one(self):
        for r, want in [(1.1, 1.63873903960982), (3.0, 3.17107647065668), (10.0, 10.0501243835583)]:
            enclosure = u_eval(r, 1e-9)
            assert enclosure.lo <= want <= enclosure.hi or abs(enclosure.mid - want) < 1e-9


class TestUTable:
    def test_two_identical_rows(self):
        rows = u_table(1.0, 1.0, 2)
        assert len(rows) == 2
        assert rows[0] == rows[1]
        assert rows[0][1] <= PHI <= rows[0][2]

    def test_constant_region(self):
        rows = u_table(0.0, 1.0, 5, tol=1e-9)
        for _, lo, hi in rows:
            assert abs(0.5 * (lo + hi) - PHI) <= 1e-6

    def test_increasing_region(self):
        rows = u_table(1.0, 10.0, 10, tol=1e-9)
        lows = [lo for _, lo, hi in rows]
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_depth_cap(self):
        assert u_table(1.0, 2.0, 3, depth_cap=DEFAULT_DEPTH_CAP) == u_table(1.0, 2.0, 3)
        # width 1e-9 needs depth 21 at r = 1
        with pytest.raises(RuntimeError, match="within depth 4"):
            u_table(1.0, 2.0, 3, depth_cap=4)

    @given(
        r_min=st.floats(0.0, sys.float_info.max),
        r_max=st.floats(0.0, sys.float_info.max),
        count=st.integers(2, 64),
    )
    @example(r_min=0.0, r_max=1e308, count=4)  # (r_max - r_min) * 2 overflows
    def test_samples_span_the_range_exactly(self, r_min, r_max, count):
        r_min, r_max = sorted((r_min, r_max))
        with pytest.MonkeyPatch.context() as patch:  # the samples alone, not U at them
            patch.setattr(nestrad.ufunc, "u_eval", lambda r, *_: Enclosure(r, r, 1, 0.0))
            samples = [r for r, _, _ in u_table(r_min, r_max, count)]
        assert len(samples) == count
        assert samples[0] == r_min and samples[-1] == r_max
        assert all(r_min <= left <= right <= r_max for left, right in zip(samples, samples[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            u_table(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            u_table(3.0, 2.0, 4)
