"""Shared oracles and randomized suites for the test modules.

The mpmath helpers evaluate radicals by direct high-precision truncation and
serve as the independent side of every certified-value check; they never
touch the fold engine under test.  The ``run_*_suite`` functions hold
the randomized inequality checks so the unit tests and the acceptance suite
can run them at different case counts.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

import mpmath as mp

from nestrad import ARCTAN, OuterFunction, nested_eval, sqrt_nested_scaled

REL_SLACK = 1e-12
ABS_SLACK = 1e-15

CONCAVE_SET = (
    OuterFunction(math.cbrt, math.inf, "cbrt"),
    ARCTAN,
    OuterFunction(math.log1p, math.inf, "log1p"),
)


def _slack(*values: float) -> float:
    return REL_SLACK * max(1.0, *(abs(v) for v in values)) + ABS_SLACK


def arctan_error_bound(n: int) -> float:
    """The iterated-ceiling bound after n arctan terms: atan applied n - 1 times to pi/2.

    It bounds how far the depth-n fold with seed 0 can lie from the limit,
    whatever non-negative terms follow.
    """
    bound = math.pi / 2.0
    for _ in range(n - 1):
        bound = math.atan(bound)
    return bound


# ---------------------------------------------------------------------------
# independent oracles (mpmath / plain-arithmetic truncation)

def mp_nested_sqrt_raw(raw_terms: Sequence[float], seed_raw: float = 0.0, dps: int = 60) -> float:
    """sqrt(a_1 + sqrt(a_2 + ... sqrt(a_n + seed_raw))) by direct fold."""
    with mp.workdps(dps):
        value = mp.mpf(seed_raw)
        for term in reversed(list(raw_terms)):
            value = mp.sqrt(mp.mpf(term) + value)
        return float(value)


def mp_golden_truncation(depth: int, seed: float = 1.0, dps: int = 60) -> float:
    with mp.workdps(dps):
        value = mp.mpf(seed)
        for _ in range(depth):
            value = mp.sqrt(1 + value)
        return float(value)


def mp_u(r, depth: int, dps: int = 120, as_float: bool = True):
    """Truncation of the golden-body transfinite radical at the given depth.

    For r >= 1 the truncations increase with depth towards U(r), and the
    depth-d one lies within r * (phi ** 2**-d - 1) <= r * 2**-d of it.
    ``as_float=False`` returns the mpf at ``dps`` digits instead of rounding.
    """
    with mp.workdps(dps):
        value = mp.mpf(r) ** (2**depth)
        for _ in range(depth):
            value = mp.sqrt(1 + value)
        return float(value) if as_float else value


def mp_constant_raw_tail_norm(c: float, n: int, extra_depth: int = 80, dps: int = 60) -> float:
    """Normalized value of the depth-n tail of the constant-raw radical a_k = c."""
    with mp.workdps(dps):
        value = mp.mpf(0)
        for _ in range(extra_depth):
            value = mp.sqrt(c + value)
        return float(value ** (mp.mpf(2) ** (1 - n)))


def mp_ramanujan_pushed(depth: int, dps: int = 400) -> float:
    """Truncation of the pushed-multiplier form via exact huge coefficients."""
    with mp.workdps(dps):
        m = mp.mpf(2)
        raw = [mp.mpf(1)]
        for k in range(1, depth):
            raw.append(m * m)
            m = m * m * (k + 2)
        value = mp.mpf(0)
        for term in reversed(raw):
            value = mp.sqrt(term + value)
        return float(value)


def ramanujan_multiplier_oracle(depth: int, seed: float | None = None) -> float:
    """Truncation of sqrt(1 + 2 sqrt(1 + 3 sqrt(...))) in plain arithmetic.

    ``seed`` replaces the level depth+1 subexpression; the default depth+2
    undershoots its true continuation, so the result increases toward 3.
    """
    x = float(depth + 2) if seed is None else float(seed)
    for k in range(depth, 0, -1):
        x = math.sqrt(1.0 + (k + 1) * x)
    return x


def ramanujan_sup_oracle(terms: int = 400, dps: int = 60) -> float:
    """Supremum of the normalized pushed-multiplier coefficients, by series."""
    with mp.workdps(dps):
        v = mp.log(2) / 2
        for k in range(1, terms):
            v += mp.log(k + 2) / mp.mpf(2) ** (k + 1)
        return float(mp.e**v)


def ldexp_fold(ln_alphas: Sequence[float], ln_seed: float) -> float:
    """One side of the square-root fold, each level scaled by ``math.ldexp``.

    The seed is given by its log, ``-inf`` for a zero seed.  Level k runs
    r = sqrt(exp(ldexp(ln_alpha - c, k)) + r) against the running scale c,
    the largest input folded so far; a coefficient above c first multiplies
    r by exp(ldexp(c - ln_alpha, k)) and becomes c.  A level past 1074 only
    keeps the larger of its pair.  Kept as the bit-exact oracle for the
    table-scaled fold in ``sqrt_nested_scaled``, which it also follows in the
    last step, exp(c) * r.  Raises ``OverflowError`` when the radical exceeds
    binary64.
    """

    def exp_scaled(x: float, k: int) -> float:
        try:
            return math.exp(math.ldexp(x, k))
        except OverflowError:  # x is far below 0, so exp(x * 2**k) is 0
            return 0.0

    scale, r = (ln_seed, 1.0) if ln_seed > -math.inf else (-1.7976931348623157e308, 0.0)
    for k in range(len(ln_alphas), 0, -1):
        ln_alpha = ln_alphas[k - 1]
        if k > 1074:
            if ln_alpha > scale:
                scale, r = ln_alpha, 1.0
            continue
        if ln_alpha > scale:
            r *= exp_scaled(scale - ln_alpha, k)
            scale = ln_alpha
        r = math.sqrt(exp_scaled(ln_alpha - scale, k) + r)
    value = math.exp(scale) * r  # raises OverflowError past binary64
    if value == math.inf:
        raise OverflowError("the radical exceeds binary64")
    return value


def ln(value: float) -> float:
    """ln(value) for value >= 0, with -inf for 0: a seed on the fold's log scale."""
    return math.log(value) if value > 0.0 else -math.inf


def norm_fold(values: Sequence[float], seed: float = 0.0) -> float:
    """Square-root fold of normalized values: position p enters as value ** 2**p."""
    return sqrt_nested_scaled([ln(v) for v in values], ln(seed), ln(seed))[0]


# ---------------------------------------------------------------------------
# randomized inequality suites

def _random_scale(rng: random.Random, lo_exp: float = -3.0, hi_exp: float = 3.0) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def run_concave_drop_suite(cases: int, rng: random.Random) -> None:
    """h(x + dx) - h(x) never beats h(dx) - h(0) for concave non-decreasing h."""
    for _ in range(cases):
        h = rng.choice(CONCAVE_SET)
        x = _random_scale(rng)
        dx = 0.0 if rng.random() < 0.05 else _random_scale(rng)
        lhs = h.eval(x + dx) - h.eval(x)
        rhs = h.eval(dx) - h.eval(0.0)
        assert lhs <= rhs + _slack(lhs, rhs), (h.label, x, dx, lhs, rhs)


def run_gap_dominance_suite(cases: int, rng: random.Random) -> None:
    """Seed swings over smaller coefficients dominate swings over larger ones."""
    for _ in range(cases):
        h = rng.choice(CONCAVE_SET)
        length = rng.randint(1, 8)
        large = [_random_scale(rng, -2.0, 2.0) for _ in range(length)]
        small = [value * rng.random() for value in large]
        lower = rng.uniform(0.0, 2.0)
        upper = lower + rng.uniform(0.0, 3.0)
        gap_small = nested_eval(h, small, upper) - nested_eval(h, small, lower)
        gap_large = nested_eval(h, large, upper) - nested_eval(h, large, lower)
        assert gap_small >= gap_large - _slack(gap_small, gap_large), (
            h.label, small, large, upper, lower, gap_small, gap_large,
        )


def run_seed_gap_suite(cases: int, rng: random.Random) -> None:
    """Swinging the innermost seed moves the value by at most the swing."""
    for _ in range(cases):
        length = rng.randint(0, 10)
        ln_alphas = []
        for _ in range(length):
            alpha = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
            ln_alphas.append(math.log(alpha) if alpha > 0 else float("-inf"))
        lower = rng.uniform(0.0, 2.0)
        upper = lower if rng.random() < 0.05 else lower + rng.uniform(0.0, 2.0)
        low_value, high_value = sqrt_nested_scaled(ln_alphas, ln(lower), ln(upper))
        gap = high_value - low_value
        limit = (upper - lower) * (1.0 + REL_SLACK) + ABS_SLACK
        assert -ABS_SLACK <= gap <= limit, (ln_alphas, upper, lower, gap)


def run_swap_suite(cases: int, rng: random.Random) -> None:
    """Sorting two adjacent coefficients ascending never grows the radical."""
    for _ in range(cases):
        length = rng.randint(2, 8)
        values = [0.0 if rng.random() < 0.1 else rng.uniform(0.0, 4.0) for _ in range(length)]
        j = rng.randint(1, length - 1)
        swapped_values = list(values)
        swapped_values[j - 1 : j + 1] = sorted(values[j - 1 : j + 1])
        original, swapped = norm_fold(values), norm_fold(swapped_values)
        assert original >= swapped - _slack(original, swapped), (values, j, original, swapped)


def run_composition_concavity_suite(cases: int, rng: random.Random) -> None:
    """Midpoint concavity of h1 after h2 on random triples."""
    for _ in range(cases):
        h1 = rng.choice(CONCAVE_SET)
        h2 = rng.choice(CONCAVE_SET)
        x = rng.uniform(0.0, 50.0)
        y = rng.uniform(0.0, 50.0)
        lam = rng.random()

        def composed(t: float) -> float:
            return h1.eval(h2.eval(t))

        lhs = composed(lam * x + (1.0 - lam) * y)
        rhs = lam * composed(x) + (1.0 - lam) * composed(y)
        assert lhs >= rhs - _slack(lhs, rhs), (h1.label, h2.label, x, y, lam)


def run_fold_monotonicity_suite(cases: int, rng: random.Random) -> None:
    """Raising any coefficient or the seed never lowers the fold."""
    for _ in range(cases):
        h = rng.choice(CONCAVE_SET)
        length = rng.randint(1, 8)
        terms = [rng.uniform(0.0, 5.0) for _ in range(length)]
        seed = rng.uniform(0.0, 3.0)
        base = nested_eval(h, terms, seed)
        bump = rng.uniform(0.0, 2.0)
        if rng.random() < 0.5:
            position = rng.randrange(length)
            bumped_terms = list(terms)
            bumped_terms[position] += bump
            bumped = nested_eval(h, bumped_terms, seed)
        else:
            bumped = nested_eval(h, terms, seed + bump)
        assert bumped >= base - _slack(base, bumped), (h.label, terms, seed, bump)


# ---------------------------------------------------------------------------
# convergence-modulus manufacture for the supremum estimator

def manufacture_modulus(
    alpha_at: Callable[[int], float], observed: int, window: int = 48, safety: float = 4.0
) -> tuple[float, float]:
    """Empirical modulus for the first ``observed`` coefficients.

    Probes every single-index extension up to ``observed + window`` with the
    subset radical (the fold over the selected values, positions counted in
    the subset) and scales the largest observed change by ``safety`` to
    cover the multi-extension worst case.  Returns (epsilon, observed max).
    """
    base_values = [alpha_at(k) for k in range(1, observed + 1)]
    base = norm_fold(base_values)
    change = 0.0
    for probe in range(observed + 1, observed + window + 1):
        change = max(change, abs(norm_fold(base_values + [alpha_at(probe)]) - base))
    return safety * change + 1e-15, max(base_values)
