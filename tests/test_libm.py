"""The libm budget that the floating-point proofs rest on, checked on this platform.

The proofs in the :mod:`nestrad.kappa`, :mod:`nestrad.contfn` and
:mod:`nestrad.nested` docstrings take ``math.exp``, ``math.log``,
``math.expm1`` and ``math.atan`` within 1 ulp of the exact value, and the
float ``math.pi / 2`` within 1 ulp of pi/2.  IEEE 754 rounds ``sqrt``
correctly; libm promises nothing for the others, so this test samples each
on the argument ranges the folds use and compares it with mpmath at 160
bits.  glibc's manual tabulates its maximum errors ("Known Maximum Errors in
Math Functions").
"""

import math
import random

import mpmath as mp
import pytest

from nestrad import ARCTAN

BUDGET_ULP = 1.0


def _log_spaced(rng, count, low_exp, high_exp, signs=(1.0,)):
    return [rng.choice(signs) * 10.0 ** rng.uniform(low_exp, high_exp) for _ in range(count)]


def _arguments(name):
    rng = random.Random(f"libm-{name}")
    if name == "exp":  # the whole finite range, and near 0
        return [rng.uniform(-745.0, 709.0) for _ in range(3000)] + _log_spaced(rng, 1000, -20, 0, (-1.0, 1.0))
    if name == "log":  # every finite value > 0 (a cap-table row may hold any), and near 1
        near_one = [1.0 + x for x in _log_spaced(rng, 1000, -15, -1, (-1.0, 1.0))]
        subnormal = [math.ldexp(int(2.0 ** rng.uniform(0.0, 52.0)), -1074) for _ in range(500)]
        near_max = _log_spaced(rng, 500, 300, 308.25) + [math.nextafter(math.inf, 0.0), 5e-324, 2.0**-1022]
        return _log_spaced(rng, 3000, -300, 300) + near_one + subnormal + near_max
    if name == "expm1":  # |x| <= 2, dense near 0
        return [rng.uniform(-2.0, 2.0) for _ in range(3000)] + _log_spaced(rng, 1000, -20, 0.3, (-1.0, 1.0))
    return [rng.uniform(0.0, 4.0) for _ in range(2000)] + _log_spaced(rng, 2000, -10, 8)  # atan


def _ulp_error(got: float, exact) -> float:
    return float(abs(mp.mpf(got) - exact) / math.ulp(float(exact)))


@pytest.mark.parametrize("name", ["exp", "log", "expm1", "atan"])
def test_libm_is_within_its_budget(name):
    libm, oracle = getattr(math, name), getattr(mp, name)
    with mp.workprec(160):
        worst = max((_ulp_error(libm(x), oracle(mp.mpf(x))), x) for x in _arguments(name))
    assert worst[0] <= BUDGET_ULP, f"math.{name}({worst[1]!r}) is {worst[0]:.3f} ulp off"


def test_arctan_ceiling_is_within_its_budget():
    with mp.workprec(160):
        assert _ulp_error(ARCTAN.ceiling, mp.pi / 2) <= BUDGET_ULP
