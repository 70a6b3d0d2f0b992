"""lo <= exact <= hi against mpmath at 60 digits, on randomized enclosures.

The exact side folds the binary64 inputs the engine folds (each ln(alpha_k),
each seed, each term) in mpmath, so a miss is the engine's own rounding and
never an input conversion.  Every ``@example`` is a case whose enclosure
once excluded its exact fold.
"""

import math

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestrad import (
    ARCTAN,
    ContinuedSpec,
    OuterFunction,
    cf_limit,
    explicit,
    kappa_enclosure,
    sqrt_nested_scaled,
    u_spec,
)
from nestrad.kappa import phi_pow

DPS = 60


def exact_sqrt_fold(ln_alphas, seed):
    """sqrt(a_1 + ... sqrt(a_n + seed ** 2**n)) on the normalized scale, as an mpf.

    Level k is max + 2**-k * log1p(exp(t)), t = 2**k * (min - max), over the
    pair (ln alpha_k, the level below): the log-sum-exp of the engine's raw-scale step.
    A level with t below -10**4 adds less than e**-10000 relative and is skipped.
    """
    with mp.workdps(DPS):
        level = mp.log(seed) if seed > 0.0 else mp.ninf
        for k in range(len(ln_alphas), 0, -1):
            x = mp.mpf(ln_alphas[k - 1])
            high, low = max(x, level), min(x, level)
            t = mp.ldexp(low - high, k) if low != mp.ninf else mp.ninf
            if t > -1e4:
                high += mp.ldexp(mp.log1p(mp.exp(t)), -k)
            level = high
        return mp.exp(level)


def exact_atan_fold(terms, seed, shift=0):
    """h(t_1 + h(t_2 + ... h(t_n + seed))) as an mpf, for h(x) = shift + atan(x)."""
    with mp.workdps(DPS):
        value = mp.mpf(seed)
        for term in reversed(terms):
            value = shift + mp.atan(term + value)
        return value


def _lograw_prefixes():
    # |ln(alpha_k)| up to 700, given on the lograw scale as ln(a_k) = 2**k * ln(alpha_k), exactly
    ln_alpha = st.one_of(st.just(-math.inf), st.floats(-700.0, 700.0))
    return st.lists(ln_alpha, min_size=1, max_size=4).map(
        lambda ln_alphas: [math.ldexp(value, k) for k, value in enumerate(ln_alphas, start=1)]
    )


@settings(max_examples=300)
@given(_lograw_prefixes())
@example([math.ldexp(106.81794928233167, 1), math.ldexp(115.63807203265509, 2)])
@example([math.ldexp(-270.1184150139397, 1), math.ldexp(-278.84441819407726, 2)])
@example([-1208.0, -2448.0])
def test_lograw_prefix_on_a_zero_tail(lograw):
    spec = explicit(lograw, scale="lograw")
    enclosure = kappa_enclosure(spec, len(lograw) + 1)
    exact = exact_sqrt_fold(spec.terms_lograw(len(lograw)), 0.0)
    assert enclosure.lo <= exact <= enclosure.hi, (lograw, enclosure, exact)


@settings(max_examples=60)
@given(
    st.floats(0.0, 300.0).map(lambda exponent: 10.0**exponent),
    st.one_of(st.integers(1, 256), st.sampled_from([1024, 1075, 1100])),
)
@example(2.3390306250953095e237, 3)
def test_u_against_both_seed_folds(r, depth):
    spec = u_spec(r)
    enclosure = kappa_enclosure(spec, depth)
    lower, upper = spec.tail_bounds(depth)
    ln_alphas = spec.terms_lograw(depth - 1)
    assert enclosure.lo <= exact_sqrt_fold(ln_alphas, lower), (r, depth, enclosure)
    assert exact_sqrt_fold(ln_alphas, upper * phi_pow(depth - 1)) <= enclosure.hi, (r, depth, enclosure)


def _fold_inputs():
    # ln(alpha_k) up to 700 in magnitude, zeros, and seeds from 0 to e**700
    magnitude = st.sampled_from([1.0, 10.0, 700.0])
    ln_alpha = st.one_of(st.just(-math.inf), st.floats(-1.0, 1.0))
    ln_alphas = st.tuples(magnitude, st.lists(ln_alpha, max_size=300)).map(
        lambda drawn: [drawn[0] * value for value in drawn[1]]
    )
    seed = st.one_of(
        st.sampled_from([0.0, 1.0, math.exp(-700.0), math.exp(700.0)]),
        st.floats(-700.0, 700.0).map(math.exp),
    )
    return st.tuples(ln_alphas, seed, seed)


UNIT_ZEROS_HALF = [0.0] + [-math.inf] * 1099  # a unit coefficient, zeros, a seed of 0.5


@settings(max_examples=100)
@given(_fold_inputs())
# one side below the largest coefficient and one above it, or far below it
@example(([0.0] + [-math.inf] * 40, 0.5, 2.0))
@example(([math.log(3.0), -5.0, -math.inf, -40.0], math.exp(-700.0), 3.5))
@example(([-math.inf] * 30 + [350.0, -700.0], math.exp(-300.0), math.exp(300.0)))
@example((UNIT_ZEROS_HALF, 0.5, 1.5))
# deep folds around the binary64 exponent range
@example(([0.0] * 1023, 0.5, 1.5))
@example(([0.0] * 1024, 0.0, 1.0))
@example(([-0.25] * 1073 + [0.0], 0.5, 2.0))
@example((UNIT_ZEROS_HALF[:1075], 0.5, 0.0))
@example(([0.0, -0.5] * 550, math.exp(-700.0), math.exp(700.0)))
def test_fold_is_within_4_ulp(case):
    ln_alphas, lo_seed, hi_seed = case
    try:
        folded = sqrt_nested_scaled(ln_alphas, lo_seed, hi_seed)
    except ValueError as exc:  # both radicals are checked; one past binary64 is refused
        assert "exceeds binary64" in str(exc)
        return
    for value, seed in zip(folded, (lo_seed, hi_seed)):
        exact = exact_sqrt_fold(ln_alphas, seed)
        assert abs(value - exact) <= 4 * math.ulp(float(exact)), (ln_alphas, seed, value, exact)


def test_underflowing_seed_is_not_lost():
    # 0.5 ** 2**1100 flushes to 0 on any fixed raw scale, which would give 1
    lo, hi = sqrt_nested_scaled(UNIT_ZEROS_HALF, 0.5, 0.5)
    assert lo == hi == math.sqrt(1.25)


def check_cf_stream(h, shift, terms, tol):
    """The enclosure holds the folds from both exact seeds, h(0) = shift and shift + pi/2."""
    result = cf_limit(ContinuedSpec(h, terms), tol)
    enclosure = result.enclosure
    observed = terms[: enclosure.depth]
    assert enclosure.lo <= exact_atan_fold(observed, shift, shift), (terms, tol, enclosure)
    with mp.workdps(DPS):
        ceiling = shift + mp.pi / 2
    assert exact_atan_fold(observed, ceiling, shift) <= enclosure.hi, (terms, tol, enclosure)
    assert not result.converged or enclosure.width <= tol, (terms, tol, enclosure)


CF_STREAMS = (
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=301),
    st.floats(-12.0, 0.3).map(lambda exponent: 10.0**exponent),
)


@settings(max_examples=60)
@given(*CF_STREAMS)
@example([7.8, 2.5, 0.5, 1.6, 3.7, 8.7, 3.8, 1.0], 0.7)
def test_cf_arctan_stream(terms, tol):
    check_cf_stream(ARCTAN, 0, terms, tol)


# an outer function with h(0) > 0: the lower seed is h(0) = 1, not 0
SHIFTED_ARCTAN = OuterFunction(lambda x: 1.0 + math.atan(x), 1.0 + math.pi / 2.0, "1 + arctan")


@settings(max_examples=60)
@given(*CF_STREAMS)
def test_cf_shifted_arctan_stream(terms, tol):
    check_cf_stream(SHIFTED_ARCTAN, 1, terms, tol)
