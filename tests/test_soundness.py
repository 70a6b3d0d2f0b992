"""lo <= exact <= hi against mpmath at 60 digits, on randomized enclosures.

The exact side folds the binary64 inputs the engine folds (each ln(alpha_k),
each seed's log, each term) in mpmath, so a miss is the engine's own
rounding and never an input conversion.  The golden boost of a cap is added
exactly.  Every ``@example`` is a case whose enclosure once excluded its
exact fold.  The strict-xfail tests at the end compare with the exact value
of the radical itself, so they see the rounding of the stored logs too.
"""

import contextlib
import io
import json
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestrad import (
    ARCTAN,
    CapTableTail,
    ConstantNormalizedTail,
    ConstantRawTail,
    ContinuedSpec,
    OmegaTail,
    OuterFunction,
    RamanujanTail,
    SequenceSpec,
    ZeroTail,
    cf_limit,
    cli,
    constant_raw,
    explicit,
    kappa_enclosure,
    sqrt_nested_scaled,
    u_spec,
)

DPS = 60


def exact_sqrt_fold(ln_alphas, ln_seed):
    """sqrt(a_1 + ... sqrt(a_n + seed ** 2**n)) on the normalized scale, as an mpf.

    ``ln_seed`` is the seed's log, taken exactly: a float, -inf or an mpf.

    Level k is max + 2**-k * log1p(exp(t)), t = 2**k * (min - max), over the
    pair (ln alpha_k, the level below): the log-sum-exp of the engine's raw-scale step.
    A level with t below -10**4 adds less than e**-10000 relative and is skipped.
    """
    with mp.workdps(DPS):
        level = mp.mpf(ln_seed)
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
    exact = exact_sqrt_fold(spec.terms_lograw(len(lograw)), -math.inf)
    assert enclosure.lo <= exact <= enclosure.hi, (lograw, enclosure, exact)


DEPTHS = st.one_of(st.integers(1, 256), st.sampled_from([1024, 1075, 1100]))


def check_both_seed_folds(spec, depth):
    """lo is below the exact fold from the lower seed, hi above the one from the exactly boosted cap.

    Every drawn coefficient and seed is at most e**700, so the radical stays
    below e**700 * phi and no refusal is expected.
    """
    enclosure = kappa_enclosure(spec, depth)
    depth = enclosure.depth  # a cap table clamps it
    ln_lower, ln_cap = spec.tail_bounds(depth)
    ln_alphas = spec.terms_lograw(depth - 1)
    with mp.workdps(DPS):
        ln_hi = mp.mpf(ln_cap) + mp.ldexp(mp.log(mp.phi), 1 - depth)
    assert enclosure.lo <= exact_sqrt_fold(ln_alphas, ln_lower), (spec, depth, enclosure)
    assert exact_sqrt_fold(ln_alphas, ln_hi) <= enclosure.hi, (spec, depth, enclosure)


@settings(max_examples=60)
@given(st.floats(0.0, 300.0).map(lambda exponent: 10.0**exponent), DEPTHS)
@example(2.3390306250953095e237, 3)
def test_u_against_both_seed_folds(r, depth):
    check_both_seed_folds(u_spec(r), depth)


def _tails(prefix_length):
    # every tail kind; a cap table's one row sits at the depth its prefix pins
    magnitude = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
    cap_row = st.tuples(st.floats(0.0, 1.0), magnitude).map(
        lambda drawn: CapTableTail(((prefix_length + 1, drawn[0] * drawn[1], drawn[1]),))
    )
    return st.one_of(
        st.just(ZeroTail()),
        st.one_of(st.just(0.0), magnitude).map(ConstantRawTail),
        st.one_of(st.just(0.0), magnitude).map(ConstantNormalizedTail),
        st.just(RamanujanTail()),
        st.one_of(st.just(0.0), st.floats(0.0, 300.0).map(lambda exponent: 10.0**exponent)).map(OmegaTail),
        cap_row,
    )


@st.composite
def _tail_specs(draw):
    # a bare tail, or a lograw prefix of up to 4 coefficients before it
    lograw = draw(st.one_of(st.just([]), _lograw_prefixes()))
    tail = draw(_tails(len(lograw)))
    return explicit(lograw, scale="lograw", tail=tail) if lograw else SequenceSpec((), tail)


@settings(max_examples=300)
@given(_tail_specs(), DEPTHS)
def test_every_tail_against_both_seed_folds(spec, depth):
    check_both_seed_folds(spec, depth)


def _fold_inputs():
    # ln(alpha_k) up to 700 in magnitude, zeros, and seed logs from -inf to 700, in order
    magnitude = st.sampled_from([1.0, 10.0, 700.0])
    ln_alpha = st.one_of(st.just(-math.inf), st.floats(-1.0, 1.0))
    ln_alphas = st.tuples(magnitude, st.lists(ln_alpha, max_size=300)).map(
        lambda drawn: [drawn[0] * value for value in drawn[1]]
    )
    ln_seed = st.one_of(st.sampled_from([-math.inf, 0.0, -700.0, 700.0]), st.floats(-700.0, 700.0))
    return st.tuples(ln_alphas, ln_seed, ln_seed).map(lambda drawn: (drawn[0], *sorted(drawn[1:])))


UNIT_ZEROS_HALF = [0.0] + [-math.inf] * 1099  # a unit coefficient, zeros, a seed of 0.5
LN_HALF, LN_1_5, LN_2 = math.log(0.5), math.log(1.5), math.log(2.0)


@settings(max_examples=100)
@given(_fold_inputs())
# one side below the largest coefficient and one above it, or far below it
@example(([0.0] + [-math.inf] * 40, LN_HALF, LN_2))
@example(([math.log(3.0), -5.0, -math.inf, -40.0], -700.0, math.log(3.5)))
@example(([-math.inf] * 30 + [350.0, -700.0], -300.0, 300.0))
@example((UNIT_ZEROS_HALF, LN_HALF, LN_1_5))
# deep folds around the binary64 exponent range
@example(([0.0] * 1023, LN_HALF, LN_1_5))
@example(([0.0] * 1024, -math.inf, 0.0))
@example(([-0.25] * 1073 + [0.0], LN_HALF, LN_2))
@example((UNIT_ZEROS_HALF[:1075], -math.inf, LN_HALF))
@example(([0.0, -0.5] * 550, -700.0, 700.0))
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
    lo, hi = sqrt_nested_scaled(UNIT_ZEROS_HALF, LN_HALF, LN_HALF)
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


# The stored log of a huge constant_raw seed is rounded, and the pads do not
# cover that rounding at shallow depths, so these enclosures exclude the exact
# value today (ROADMAP item 1b-i).  Strict: the change that bounds the error of
# every stored log makes them pass, and must remove the markers.
RAW_1E200 = 1e200
with mp.workdps(DPS):
    EXACT_RAW_1E200 = 0.5 + mp.sqrt(mp.mpf(RAW_1E200) + 0.25)  # 9.9999999999999998487e+99


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
def test_converged_cli_eval_of_a_huge_constant_raw_contains_the_value():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(["eval", "--family", "constant_raw:1e200", "--tol", "1e88"])
    document = json.loads(out.getvalue())
    assert status == 0 and document["converged"]
    assert document["lo"] <= EXACT_RAW_1E200 <= document["hi"], document


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_shallow_enclosures_of_a_huge_constant_raw_contain_the_value(depth):
    enclosure = kappa_enclosure(constant_raw(RAW_1E200), depth)
    assert enclosure.lo <= EXACT_RAW_1E200 <= enclosure.hi, enclosure
