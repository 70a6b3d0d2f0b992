import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from nestrad import (
    RAMANUJAN_SUP_BOUND,
    CapTableTail,
    ConstantNormalizedTail,
    ConstantRawTail,
    OmegaTail,
    SequenceSpec,
    SpecError,
    ZeroTail,
    constant_normalized,
    constant_raw,
    explicit,
    golden,
    load_cap_table,
    make_family,
    parse_spec,
    power_tower,
    ramanujan,
)
from nestrad.seqspec import _RAMANUJAN_V


def ln_alpha(spec, k):
    return spec.terms_lograw(k)[k - 1]


def outward(ln_value, direction):
    """ln_value two nextafter steps toward direction * inf, as a cap table stores a row's log."""
    toward = math.copysign(math.inf, direction)
    return math.nextafter(math.nextafter(ln_value, toward), toward)


def log_raw(spec, k):
    """ln(a_k) = 2**k * ln(alpha_k) of a prefix coefficient."""
    return math.ldexp(spec.prefix[k - 1], k)


class TestTerm:
    """Coefficient encoding and the range checks of explicit() and parse_spec()."""

    def test_golden_term(self):
        assert ln_alpha(golden(), 5) == 0.0
        assert golden().tail_bounds(5) == (0.0, 0.0)

    def test_power_tower_term(self):
        spec = power_tower()
        assert ln_alpha(spec, 3) == pytest.approx(math.log(2.0), rel=1e-15)
        listed = explicit([2.0, 2.0, 2.0], scale="norm")
        assert log_raw(listed, 3) == pytest.approx(8 * math.log(2.0), rel=1e-15)
        assert log_raw(listed, 3) == pytest.approx(5.545177444479562, rel=1e-12)

    def test_ramanujan_third_term(self):
        # push-multipliers-inward rewrite: m_1=2, m_2=12, a_3 = m_2**2 = 144
        value = ln_alpha(ramanujan(), 3)
        assert math.ldexp(value, 3) == pytest.approx(math.log(144.0), rel=1e-13)
        assert math.exp(value) == pytest.approx(144.0 ** 0.125, rel=1e-13)
        assert math.exp(value) == pytest.approx(1.8612097182041991, rel=1e-12)

    def test_zero_term_encoding(self):
        for scale, zero in (("raw", 0.0), ("norm", 0.0), ("lograw", float("-inf"))):
            spec = explicit([1.0, 1.0, 1.0, zero], scale=scale)
            assert ln_alpha(spec, 4) == float("-inf")
            assert spec.tail_bounds(4) == (-math.inf, -math.inf)
            assert log_raw(spec, 4) == float("-inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            explicit([-1.0], scale="norm")
        with pytest.raises(ValueError, match="negative"):
            explicit([1.0, -0.5], scale="raw")
        with pytest.raises(SpecError, match="negative"):
            parse_spec("terms_norm=[1,-2]")

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            golden().tail_bounds(0)
        with pytest.raises(ValueError):
            explicit([1.0]).tail_bounds(0)

    def test_inconsistent_fields_rejected(self):
        # alpha_1 = exp(750) overflows, and alpha_1 = exp(-5000) flushes to a
        # zero that a finite ln(alpha) does not encode
        for scale, value in (
            ("norm", math.nan),
            ("norm", math.inf),
            ("raw", math.nan),
            ("raw", math.inf),
            ("lograw", math.nan),
            ("lograw", math.inf),
            ("lograw", 1500.0),
            ("lograw", -1e4),
        ):
            with pytest.raises(ValueError):
                explicit([value], scale=scale)
            with pytest.raises(SpecError, match="line 2"):
                parse_spec(f"# bad\nterms_{scale}=[{value}]")
        for ln_alpha_1 in (math.nan, math.inf, 750.0, -5000.0):
            with pytest.raises(ValueError):
                SequenceSpec((ln_alpha_1,), ZeroTail())

    @given(
        value=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
        index=st.integers(min_value=1, max_value=256),
    )
    def test_normalized_roundtrip_within_4_ulp(self, value, index):
        spec = explicit([1.0] * (index - 1) + [value], scale="norm")
        back = math.exp(ln_alpha(spec, index))
        assert abs(back - value) <= 4 * math.ulp(value)

    @given(
        value=st.floats(min_value=1e-300, max_value=1e300, allow_nan=False),
        index=st.integers(min_value=1, max_value=256),
    )
    def test_normalized_roundtrip_extreme_magnitudes(self, value, index):
        # exp(log(x)) costs about |ln x| / 2 ulp in binary64, so the bound
        # has to scale once the coefficient leaves the moderate range
        spec = explicit([1.0] * (index - 1) + [value], scale="norm")
        back = math.exp(ln_alpha(spec, index))
        log_rounding = math.ulp(max(1.0, abs(math.log(value))))
        budget = value * (log_rounding + 4.0 * math.ulp(1.0))
        assert abs(back - value) <= budget

    @given(
        raw=st.floats(min_value=1e-300, max_value=1e300, allow_nan=False),
        index=st.integers(min_value=1, max_value=64),
    )
    def test_raw_roundtrip(self, raw, index):
        spec = explicit([1.0] * (index - 1) + [raw])
        assert log_raw(spec, index) == pytest.approx(math.log(raw), rel=1e-15, abs=1e-15)


class TestTailModels:
    def test_zero_tail(self):
        tail = ZeroTail()
        assert tail.ln_bounds(7) == (-math.inf, -math.inf)
        assert tail.ln_alphas(9, 10) == [float("-inf")] * 2

    def test_constant_normalized_tail(self):
        tail = ConstantNormalizedTail(2.0)
        assert tail.ln_bounds(3) == (math.log(2.0), math.log(2.0))
        assert tail.ln_alphas(4, 4) == [math.log(2.0)]

    @pytest.mark.parametrize("c", [0.5, 2.0, 6.0])
    def test_constant_raw_lower_seed_is_tail_value(self, c):
        # the lower seed must not exceed the true normalized tail value, and
        # for a constant raw tail it equals it (fixed point of sqrt(c + x))
        tail = ConstantRawTail(c)
        for n in (2, 5, 9):
            lower, upper = (math.exp(bound) for bound in tail.ln_bounds(n))
            truth = support.mp_constant_raw_tail_norm(c, n)
            assert lower == pytest.approx(truth, rel=1e-13)
            assert lower <= truth * (1 + 1e-12)
            term_sup = max(1.0, max(c ** (2.0 ** -k) for k in range(n, n + 200)))
            assert upper >= term_sup * (1 - 1e-12)

    def test_constant_raw_zero(self):
        tail = ConstantRawTail(0.0)
        assert tail.ln_bounds(4) == (-math.inf, -math.inf)

    def test_omega_tail(self):
        tail = OmegaTail(2.5)
        assert tail.ln_bounds(6) == (math.log(2.5), math.log(2.5))
        assert OmegaTail(0.25).ln_bounds(6) == (0.0, 0.0)
        assert tail.ln_alphas(3, 5) == [0.0] * 3

    def test_cap_table_bounds(self):
        tail = CapTableTail(((4, 0.5, 1.5), (8, 0.9, 1.2)))
        assert tail.ln_bounds(4) == (outward(math.log(0.5), -1), outward(math.log(1.5), 1))
        assert tail.ln_bounds(8) == (outward(math.log(0.9), -1), outward(math.log(1.2), 1))
        # deeper queries: a cap stays valid, a lower seed does not
        assert tail.ln_bounds(20) == (-math.inf, outward(math.log(1.2), 1))
        # a zero stays -inf on either side
        assert CapTableTail(((2, 0.0, 0.0),)).ln_bounds(2) == (-math.inf, -math.inf)
        with pytest.raises(SpecError):
            tail.ln_bounds(2)
        with pytest.raises(SpecError):
            tail.ln_alphas(5, 5)

    def test_cap_table_validation(self):
        with pytest.raises(SpecError):
            CapTableTail(())
        with pytest.raises(SpecError):
            CapTableTail(((1, -0.5, 1.0),))
        with pytest.raises(SpecError):
            CapTableTail(((2, 0.0, 1.0), (2, 0.0, 1.0)))


class TestRamanujanFamily:
    def test_terms_increase_toward_sup(self):
        spec = ramanujan()
        alphas = [math.exp(v) for v in spec.terms_lograw(64)]
        assert all(a <= b for a, b in zip(alphas, alphas[1:]))
        # strict growth until the series increments fall below one ulp
        assert all(a < b for a, b in zip(alphas[:48], alphas[1:49]))
        assert all(a <= 3.0 for a in alphas)
        assert all(a < RAMANUJAN_SUP_BOUND for a in alphas)

    def test_sup_bound_matches_series_oracle(self):
        oracle = support.ramanujan_sup_oracle()
        assert RAMANUJAN_SUP_BOUND >= oracle
        assert RAMANUJAN_SUP_BOUND == pytest.approx(oracle, rel=1e-12)
        assert RAMANUJAN_SUP_BOUND == pytest.approx(2.7612068419575, rel=1e-12)

    def test_tail_bounds(self):
        spec = ramanujan()
        lower, upper = spec.tail_bounds(10)
        assert lower == ln_alpha(spec, 10)
        assert upper == math.log(RAMANUJAN_SUP_BOUND)


def _ramanujan_chain(count):
    """v_0..v_count by the recurrence v_k = v_{k-1} + 2**-k * ln(k+1), every step rounded."""
    v = [0.0]
    for k in range(1, count + 1):
        v.append(v[k - 1] + math.ldexp(math.log(k + 1), -k))
    return v


class TestRamanujanTable:
    """The fixed table against the recurrence summed to depth 1,500, bit for bit."""

    CHAIN = _ramanujan_chain(1500)
    EDGES = sorted({*range(1, 80), 100, 299, 300, 301, 302, 500, 1000, 1023, 1024, 1100, 1499, 1500})

    def test_ln_alphas(self):
        tail = ramanujan().tail
        for first in self.EDGES:
            for last in self.EDGES:
                if last >= first - 1:  # every v_k is finite and >= +0.0, so == is bit identity
                    assert tail.ln_alphas(first, last) == self.CHAIN[first - 1:last], (first, last)

    def test_bounds(self):
        tail = ramanujan().tail
        for n in range(1, 1501):
            assert tail.ln_bounds(n) == (self.CHAIN[n - 1], math.log(RAMANUJAN_SUP_BOUND)), n

    def test_sup_bound_is_unchanged(self):
        assert RAMANUJAN_SUP_BOUND == math.exp(self.CHAIN[300]) * (1.0 + 1e-13)
        assert RAMANUJAN_SUP_BOUND == 2.761206841957775

    def test_table_ends_where_the_sum_stops_changing(self):
        changes = [k for k in range(1, 1501) if self.CHAIN[k] != self.CHAIN[k - 1]]
        assert changes == list(range(1, len(_RAMANUJAN_V)))
        assert list(_RAMANUJAN_V) == self.CHAIN[:len(_RAMANUJAN_V)]
        assert len(_RAMANUJAN_V) == 56


class TestSequenceSpec:
    def test_consecutive_indices_enforced(self):
        # the k-th listed value is a_k: it is normalized with exponent 2**-k
        spec = explicit([4.0, 4.0, 4.0])
        assert spec.terms_lograw(3) == [math.ldexp(math.log(4.0), -k) for k in (1, 2, 3)]
        # ln(4) = 1.3862943611198906 listed three times: each is normalized by its own index
        lograw = parse_spec("terms_lograw=[1.3862943611198906,1.3862943611198906,1.3862943611198906]")
        assert lograw == spec

    def test_golden_tail_bounds(self):
        for n in (1, 3, 17):
            assert golden().tail_bounds(n) == (0.0, 0.0)

    def test_zero_tail_bounds(self):
        spec = explicit([6.0])
        assert spec.tail_bounds(2) == (-math.inf, -math.inf)
        # at depth 1 the stored coefficient itself seeds both sides
        lower, upper = spec.tail_bounds(1)
        assert lower == upper == pytest.approx(math.log(6.0) / 2, rel=1e-15)

    def test_prefix_terms_fold_into_bounds(self):
        spec = explicit([2.0, 1.5], scale="norm", tail=ConstantNormalizedTail(1.0))
        assert spec.tail_bounds(1) == (math.log(2.0), math.log(2.0))
        assert spec.tail_bounds(2) == (math.log(1.5), math.log(1.5))
        assert spec.tail_bounds(3) == (0.0, 0.0)

    def test_cap_table_starting_deeper_is_refused_when_built(self):
        # the seed pairs at the prefix depths need the tail's bounds at depth
        # 3, which this cap table refuses, so the spec is refused
        tail = CapTableTail(((5, 0.5, 1.0),))
        with pytest.raises(SpecError, match="^cap table does not cover depth 3$"):
            explicit([2.0, 1.5], scale="norm", tail=tail)
        # with no prefix the spec asks its tail nothing until a depth is read
        assert SequenceSpec((), tail).tail_bounds(5) == (outward(math.log(0.5), -1), outward(0.0, 1))

    def test_tail_that_raises_is_refused_when_built(self):
        # whatever a tail raises at depth len(prefix) + 1, building the spec raises
        class Refusing(ZeroTail):
            __slots__ = ()

            def ln_bounds(self, n):
                raise ValueError(f"no bounds at depth {n}")

        for tail, error, message in (
            (Refusing(), ValueError, "^no bounds at depth 3$"),
            (object(), AttributeError, "ln_bounds"),
        ):
            with pytest.raises(error, match=message):
                SequenceSpec((0.5, 0.25), tail)
            assert SequenceSpec((), tail).prefix == ()

    def test_terms_lograw_extends(self):
        spec = explicit([4.0], tail=ConstantNormalizedTail(1.0))
        ws = spec.terms_lograw(3)
        assert ws[0] == pytest.approx(math.log(4.0) / 2)
        assert ws[1] == ws[2] == 0.0

    def test_max_depth(self):
        assert golden().max_depth() is None
        capped = explicit([1.0, 1.0], tail=CapTableTail(((3, 0.5, 1.5),)))
        assert capped.max_depth() == 3


class TestParseRender:
    def test_family_golden(self):
        spec = parse_spec("family=golden")
        assert spec == golden()
        assert spec.tail == ConstantNormalizedTail(1.0)

    def test_terms_raw_with_constant_raw_tail(self):
        spec = parse_spec("terms_raw=[2,2,2]\ntail=constant_raw:2")
        expected = [2.0 ** 0.5, 2.0 ** 0.25, 2.0 ** 0.125]
        for k, want in enumerate(expected, start=1):
            assert math.exp(ln_alpha(spec, k)) == pytest.approx(want, rel=1e-14)
        assert spec.tail == ConstantRawTail(2.0)

    def test_negative_term_reports_line(self):
        with pytest.raises(SpecError) as err:
            parse_spec("# comment\nterms_raw=[-1]")
        assert "line 2" in str(err.value)
        assert "negative" in str(err.value)

    def test_malformed_lines(self):
        with pytest.raises(SpecError):
            parse_spec("family")
        with pytest.raises(SpecError):
            parse_spec("terms_raw=1,2")
        with pytest.raises(SpecError):
            parse_spec("what=ever")
        with pytest.raises(SpecError):
            parse_spec("")
        with pytest.raises(SpecError):
            parse_spec("family=golden\ntail=zero")
        with pytest.raises(SpecError):
            parse_spec("terms_raw=[1]\nterms_norm=[1]")
        with pytest.raises(SpecError):
            parse_spec("family=unknown_thing")
        with pytest.raises(SpecError):
            parse_spec("terms_raw=[1]\ntail=goldenish")
        with pytest.raises(SpecError, match="line 2"):
            parse_spec("terms_raw=[1]\ntail=zero:5")

    def test_default_tail_is_zero(self):
        assert parse_spec("terms_raw=[5]").tail == ZeroTail()

    def test_terms_lograw_allows_negatives(self):
        spec = parse_spec("terms_lograw=[-0.5,-inf]")
        assert spec.terms_lograw(2) == [-0.25, float("-inf")]

    @pytest.mark.parametrize(
        "token,spec",
        [
            pytest.param(token, spec, id=token)
            for token, spec in [
                ("golden", golden()),
                ("powertower", power_tower()),
                ("ramanujan", ramanujan()),
                ("constant_raw:6", constant_raw(6.0)),
                ("constant_norm:2", constant_normalized(2.0)),
            ]
        ],
    )
    def test_family_roundtrip(self, token, spec):
        assert parse_spec(f"family={token}\n") == spec

    def test_explicit_roundtrip(self):
        spec = explicit([1.5, 0.0, 7.25], tail=OmegaTail(2.0))
        # ln(1.5), ln(0) and ln(7.25) on the lograw scale
        text = "terms_lograw=[0.4054651081081644,-inf,1.9810014688665833]\ntail=omega:2\n"
        assert parse_spec(text) == spec

    def test_make_family_validation(self):
        with pytest.raises(SpecError):
            make_family("golden:3")
        with pytest.raises(SpecError):
            make_family("golden:")
        with pytest.raises(SpecError):
            make_family("constant_raw")
        with pytest.raises(SpecError):
            make_family("constant_raw:abc")
        with pytest.raises(SpecError):
            make_family("constant_norm:-2")

    def test_cap_table_file(self, tmp_path: Path):
        cap = tmp_path / "caps.csv"
        cap.write_text("n,lower_seed,upper_cap\n4,0.5,1.5\n8,0.9,1.2\n", encoding="utf-8")
        spec = parse_spec(f"terms_norm=[1,1,1]\ntail=cap:{cap.name}", cap_base=tmp_path)
        assert isinstance(spec.tail, CapTableTail)
        assert spec.tail.ln_bounds(4) == (outward(math.log(0.5), -1), outward(math.log(1.5), 1))
        table = load_cap_table(cap)
        assert table.rows == ((4, 0.5, 1.5), (8, 0.9, 1.2))

    def test_cap_table_file_errors(self, tmp_path: Path):
        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SpecError):
            load_cap_table(bad_header)
        bad_cell = tmp_path / "cell.csv"
        bad_cell.write_text("n,lower_seed,upper_cap\n4,x,1\n", encoding="utf-8")
        with pytest.raises(SpecError):
            load_cap_table(bad_cell)
        with pytest.raises(SpecError):
            parse_spec("terms_norm=[1]\ntail=cap:missing.csv", cap_base=tmp_path)


# The probe path's helpers checked bit for bit against their expressions
# written with max and an explicit copy; repr tells -0.0 from 0.0.

def _reference_constant_raw_bounds(raw, n):
    if raw == 0.0:
        return (-math.inf, -math.inf)
    fixed_point = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * raw))
    lower = math.ldexp(math.log(fixed_point), 1 - n)
    return (lower, max(0.0, math.ldexp(math.log(raw), -n)))


def _reference_tail_bounds(spec, n):
    p = len(spec.prefix)
    lower, upper = spec.tail.ln_bounds(max(n, p + 1))
    if n <= p:
        ln_alpha = max(spec.prefix[n - 1:])
        lower, upper = max(lower, ln_alpha), max(upper, ln_alpha)
    return (lower, upper)


def _reference_terms(spec, count):
    out = list(spec.prefix[:count])
    if count > len(spec.prefix):
        out.extend(spec.tail.ln_alphas(len(spec.prefix) + 1, count))
    return out


_RAWS = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent))
_SCALE_VALUES = {
    "raw": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    "lograw": st.one_of(st.just(-math.inf), st.floats(-300.0, 300.0)),
    "norm": st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
}


@st.composite
def _specs(draw):
    scale = draw(st.sampled_from(sorted(_SCALE_VALUES)))
    # up to 64 terms, the benchmark's longest prefix
    values = draw(st.lists(_SCALE_VALUES[scale], max_size=64))
    tail = draw(
        st.one_of(
            st.just(ZeroTail()),
            st.floats(0.0, 4.0).map(ConstantNormalizedTail),
            _RAWS.map(ConstantRawTail),
            st.floats(0.0, 4.0).map(OmegaTail),
            st.just(ramanujan().tail),
            st.floats(0.0, 4.0).map(lambda cap: CapTableTail(((len(values) + 1, 0.5 * cap, cap),))),
        )
    )
    return explicit(values, scale=scale, tail=tail)


def _tie_examples(test):
    """Prefixes whose coefficients tie, at every prefix depth and the first past it.

    Every tail kind, each with a bound at 0.0 where it has one, so that the
    sign of a zero chosen by a tie shows in repr.
    """
    for prefix in ((0.0, -0.0), (-0.0, 0.0), (0.75, -math.inf, 0.75)):
        tails = (
            ZeroTail(),
            ConstantNormalizedTail(1.0),
            ConstantRawTail(1.0),
            OmegaTail(0.5),
            ramanujan().tail,
            CapTableTail(((len(prefix) + 1, 1.0, 1.0),)),
        )
        for tail in tails:
            for n in range(1, len(prefix) + 2):
                test = example(SequenceSpec(prefix, tail), n)(test)
    return test


class TestProbeHelpersBitForBit:
    @settings(max_examples=300)
    @given(_RAWS, st.integers(1, 1100), st.integers(0, 20))
    def test_constant_raw_tail(self, raw, n, count):
        tail = ConstantRawTail(raw)
        assert repr(tail.ln_bounds(n)) == repr(_reference_constant_raw_bounds(raw, n))
        ln_raw = math.log(raw) if raw > 0.0 else -math.inf
        expected = [math.ldexp(ln_raw, -k) for k in range(n, n + count)]
        assert repr(tail.ln_alphas(n, n + count - 1)) == repr(expected)

    @settings(max_examples=300)
    @given(_specs(), st.integers(1, 300))
    @_tie_examples
    def test_tail_bounds_and_terms(self, spec, n):
        assert repr(spec.tail_bounds(n)) == repr(_reference_tail_bounds(spec, n))
        count = n - 1
        if isinstance(spec.tail, CapTableTail) and count > len(spec.prefix):
            with pytest.raises(SpecError):
                spec.terms_lograw(count)
            return
        terms = spec.terms_lograw(count)
        assert type(terms) is list
        assert repr(terms) == repr(_reference_terms(spec, count))
