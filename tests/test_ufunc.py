import math

import pytest

import support
from nestrad import DEFAULT_DEPTH_CAP, PHI, OmegaTail, u_eval, u_inverse, u_spec, u_table

U_OF_2 = 2.2642652660462583  # deep-truncation oracle, stable from depth 16 on


class TestUEval:
    def test_u_of_one_is_phi(self):
        enclosure = u_eval(1.0, 1e-9)
        assert enclosure.width <= 1e-9
        assert enclosure.contains(PHI)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.9])
    def test_constant_below_one(self, r):
        enclosure = u_eval(r, 1e-6)
        assert enclosure.mid == pytest.approx(PHI, abs=1e-6)
        assert enclosure.contains(support.mp_u(r, 64))

    def test_u_of_two(self):
        enclosure = u_eval(2.0, 1e-4)
        assert enclosure.contains(U_OF_2)
        assert enclosure.mid == pytest.approx(U_OF_2, abs=1e-4)
        # oracle self-check: deep truncations agree well inside the tolerance
        assert abs(support.mp_u(2.0, 8) - support.mp_u(2.0, 16)) <= 1e-4

    def test_spec_shape(self):
        spec = u_spec(3.0)
        assert spec.tail == OmegaTail(3.0)
        assert spec.prefix == ()
        assert spec.tail_bounds(7) == (3.0, 3.0)

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
            assert enclosure.contains(want) or abs(enclosure.mid - want) < 1e-9


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

    def test_validation(self):
        with pytest.raises(ValueError):
            u_table(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            u_table(3.0, 2.0, 4)
