import math

import mpmath as mp
import pytest

import support
from nestrad import (
    PHI,
    RAMANUJAN_SUP_BOUND,
    SupQuery,
    ramanujan,
    sup_enclosure,
)


class TestSupQuery:
    def test_zero_observed_max_rejected(self):
        with pytest.raises(ValueError):
            SupQuery(0.0, 0.1)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            SupQuery(1.0, 0.0)


class TestSupEnclosure:
    def test_tiny_modulus_pins_the_interval(self):
        lo, hi = sup_enclosure(SupQuery(1.0, 1e-9))
        assert lo == 1.0
        assert 1.0 < hi <= 1.0 + 1e-4
        # the inverse golden-body map stretches distances, so the width
        # exceeds the modulus itself
        assert hi - 1.0 >= 1e-9

    def test_tenth_modulus(self):
        lo, hi = sup_enclosure(SupQuery(1.0, 0.1))
        assert lo == 1.0
        # Lipschitz bound |U(s) - U(r)| <= |s - r| forces the inverse to
        # expand: the upper endpoint is at least 1.1
        assert hi >= 1.1
        assert hi == pytest.approx(1.2711378787082726, rel=1e-9)

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_scale_invariance(self, factor):
        base_lo, base_hi = sup_enclosure(SupQuery(1.0, 0.1))
        scaled_lo, scaled_hi = sup_enclosure(SupQuery(factor, 0.1 * factor))
        assert scaled_lo == pytest.approx(factor * base_lo, rel=1e-9)
        assert scaled_hi == pytest.approx(factor * base_hi, rel=1e-9)

    @pytest.mark.parametrize("m_h", [0.1, 1.0, 10.0])
    def test_upper_end_reaches_the_exact_bound(self, m_h):
        # hi must be at least M_H * U^-1(eps / M_H + phi), i.e. U(hi / M_H)
        # must reach eps / M_H + phi.  Truncations of U increase towards it,
        # so a depth-128 one (within 2**-120 of U here) that reaches the
        # target proves it.
        for i in range(13):
            epsilon = 10.0 ** (-12.0 + 13.0 * i / 12.0)
            _, hi = sup_enclosure(SupQuery(m_h, epsilon))
            with mp.workdps(90):
                target = mp.mpf(epsilon) / mp.mpf(m_h) + (1 + mp.sqrt(5)) / 2
                r = mp.mpf(hi) / mp.mpf(m_h)
                assert support.mp_u(r, 128, 90, as_float=False) >= target, (epsilon, hi)

    @pytest.mark.parametrize("m_h", [0.1, 1.0, 10.0])
    def test_upper_end_in_the_flat_region(self, m_h):
        # epsilon / M_H from 1e-15 to 1e-9: the root lies within about 1e-5
        # of 1, where U's slope falls below 1e-3
        for i in range(13):
            ratio = 10.0 ** (-15.0 + 0.5 * i)
            _, hi = sup_enclosure(SupQuery(m_h, ratio * m_h))
            with mp.workdps(90):
                target = mp.mpf(ratio * m_h) / mp.mpf(m_h) + (1 + mp.sqrt(5)) / 2
                r = mp.mpf(hi) / mp.mpf(m_h)
                assert support.mp_u(r, 128, 90, as_float=False) >= target, (ratio, hi)

    @pytest.mark.parametrize("m_h", [0.1, 1.0, 10.0])
    def test_upper_end_is_within_three_quarters_of_tol(self, m_h):
        # U(hi / M_H) exceeds y by at most 3 tol/4, the inverse tolerance of
        # sup_enclosure, plus hi's two upward steps (the product's rounding
        # and its nextafter), which move U by at most 2 ulp(hi) / M_H.  The
        # depth-128 truncation plus its golden-boost gap bounds U above.
        # the two grids above
        epsilons = [10.0 ** (-12.0 + 13.0 * i / 12.0) for i in range(13)]
        epsilons += [10.0 ** (-15.0 + 0.5 * i) * m_h for i in range(13)]
        for epsilon in epsilons:
            _, hi = sup_enclosure(SupQuery(m_h, epsilon))
            y = math.nextafter(epsilon / m_h + PHI, math.inf)
            tol = 1e-9 * max(1.0, y)
            with mp.workdps(90):
                r = mp.mpf(hi) / mp.mpf(m_h)
                upper = support.mp_u(r, 128, 90, as_float=False) + max(1, r) * mp.mpf(2) ** -126
                slack = 2 * mp.mpf(math.ulp(hi)) / mp.mpf(m_h)
                assert upper <= mp.mpf(y) + 0.75 * mp.mpf(tol) + slack, (epsilon, hi)

    def test_overflowing_ratio_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            sup_enclosure(SupQuery(1e-300, 1e10))

    def test_overflowing_bound_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            sup_enclosure(SupQuery(1e308, 1e308))

    def test_monotone_response(self):
        uppers = [sup_enclosure(SupQuery(1.0, eps))[1] for eps in (1e-6, 1e-4, 1e-2, 1.0)]
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))


class TestSoundnessOnKnownFamilies:
    @pytest.mark.parametrize(
        "alpha_at,true_sup",
        [
            (lambda k: 1.0, 1.0),
            (lambda k: 2.0, 2.0),
            (lambda k: math.exp(ramanujan().terms_lograw(k)[-1]), None),
        ],
        ids=["golden", "const2", "ramanujan"],
    )
    def test_interval_contains_true_sup(self, alpha_at, true_sup):
        if true_sup is None:
            true_sup = support.ramanujan_sup_oracle()
            assert true_sup <= RAMANUJAN_SUP_BOUND
        for observed in (6, 10, 14):
            epsilon, m_h = support.manufacture_modulus(alpha_at, observed)
            lo, hi = sup_enclosure(SupQuery(m_h, epsilon))
            assert lo <= true_sup <= hi, (observed, epsilon, lo, hi, true_sup)
