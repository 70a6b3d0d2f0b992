"""Containment of every CLI enclosure, checked from the numbers the user wrote.

``test_soundness.py`` folds the logs that a spec stores, so it checks the
fold but cannot see an error made when a user's number became a log.  Here
a strategy writes spec text in the README grammar: 0 to 4 prefix values on
the ``terms_raw``, ``terms_lograw`` or ``terms_norm`` scale, and a tail
token, ``zero``, ``constant_norm:``, ``constant_raw:``, ``omega:`` or
``cap:`` with a one-row table.  The oracle parses the same text into floats
and computes from those floats, in ``mpmath.iv``, each ln(alpha_k) (alpha_k =
a_k ** 2**-k) and both tail seeds (the raw fixed point of a constant raw
tail c is 0.5 + sqrt(c + 0.25)).  A cap row is the user's own claim, so its
numbers are taken as exact, as :class:`nestrad.seqspec.CapTableTail` takes
them when it stores their logs outward.

Each spec runs through ``cli.run`` as ``eval``, and, where it is a family
token (a constant tail with no prefix), as ``table`` too.  The exit code
must be 0 or 3, and each printed [lo, hi] must contain the interval folds at
the lower seed and at the golden-boosted cap of its depth.  Where the limit
has a closed form, a zero or constant tail, [lo, hi] must contain it too.

The bands split the draws by magnitude and tail kind, and together cover
every magnitude from 1e-300 to 1e300 on every scale and tail.  The cap rows
pass at every magnitude.  The other bands past 1e6, whose stored logs are
rounded past what the pads cover, fail today; each is a strict xfail with
an ``@example`` that misses, until ROADMAP item 1b-i bounds the error of
every stored log.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from nestrad import cli

NEG_INF = -math.inf
# A value within 1e6 either way has |ln alpha| < 16, so its stored log, within
# 1 ulp (tests/test_libm.py), is off by at most 2**-49 relative to the value:
# no more than the narrowest pad, 16 ulp at depth 1, and half of it with
# glibc's log, which rounds to within about half an ulp.  Past 1e6 a stored
# log may miss (item 1b-i); the first miss that 20,000 draws per tail kind at
# depth 1 found lies near 1e14.5, where |ln alpha| passes 32.
MODERATE = 6
EXTREME = 300


def _ln(value: float):
    """ln(value) as an interval, or -inf for 0."""
    return iv.log(iv.mpf(value)) if value > 0.0 else NEG_INF


def _scaled(ln_value, k: int):
    """2**k * ln_value, exactly."""
    return ln_value if ln_value == NEG_INF else iv.ldexp(ln_value, k)


def _larger(a, b):
    """The larger of two points, each an end of an interval or -inf."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return a if a > b else b


class Spec:
    """The floats that a spec text holds, as the oracle reads them."""

    def __init__(self, text: str, cap_row: tuple[int, float, float] | None):
        self.scale, self.values, self.tail, self.param = "raw", [], "zero", None
        for line in text.splitlines():
            key, _, value = line.partition("=")
            if key == "family":
                self.tail, self.param = _family(value)
            elif key.startswith("terms_"):
                self.scale = key.removeprefix("terms_")
                inner = value.strip()[1:-1]
                self.values = [float(cell) for cell in inner.split(",")] if inner else []
            elif key == "tail":
                kind, _, param = value.partition(":")
                self.tail = kind
                self.param = cap_row if kind == "cap" else float(param) if param else None

    def ln_alpha(self, k: int):
        """ln(alpha_k) as an interval, or -inf for a zero coefficient."""
        if k <= len(self.values):
            value = self.values[k - 1]
            if self.scale == "norm":
                return _ln(value)
            if self.scale == "raw":
                return _scaled(_ln(value), -k)
            return NEG_INF if value == NEG_INF else iv.ldexp(iv.mpf(value), -k)
        if self.tail == "constant_norm":
            return _ln(self.param)
        if self.tail == "constant_raw":
            return _scaled(_ln(self.param), -k)
        if self.tail == "omega":
            return iv.mpf(0)
        return NEG_INF  # zero; a cap table pins the depth before any tail coefficient

    def tail_seeds(self, n: int):
        """(ln lower seed, ln cap) of the tail at depth n > len(prefix)."""
        if self.tail == "constant_norm":
            ln_alpha = _ln(self.param)
            return ln_alpha, ln_alpha
        if self.tail == "constant_raw":
            if self.param == 0.0:
                return NEG_INF, NEG_INF
            fixed_point = 0.5 + iv.sqrt(iv.mpf(self.param) + 0.25)
            return iv.ldexp(iv.log(fixed_point), 1 - n), (_scaled(_ln(self.param), -n), iv.mpf(0))
        if self.tail == "omega":
            ln_cap = _ln(max(1.0, self.param))
            return ln_cap, ln_cap
        if self.tail == "cap":
            _, lower, upper = self.param
            return _ln(lower), _ln(upper)
        return NEG_INF, NEG_INF

    def seeds(self, depth: int):
        """(ln lower seed, ln cap) at ``depth``; below the prefix's end each is the
        larger of the tail's at len(prefix) + 1 and of the coefficients from depth on."""
        count = len(self.values)
        lower, cap = self.tail_seeds(depth if depth > count else count + 1)
        for k in range(depth, count + 1):
            ln_alpha = self.ln_alpha(k)
            lower, cap = (lower, ln_alpha), (cap, ln_alpha)
        return lower, cap

    def limit_seed(self):
        """ln of the exact tail value at depth len(prefix) + 1, or None without a closed form."""
        n = len(self.values) + 1
        if self.tail == "zero":
            return NEG_INF
        if self.tail == "constant_norm":
            ln_alpha = _ln(self.param)
            return ln_alpha if ln_alpha == NEG_INF else ln_alpha + iv.ldexp(iv.log(iv.phi), 1 - n)
        if self.tail == "constant_raw":
            return self.tail_seeds(n)[0]
        return None


def _family(token: str):
    name, _, param = token.partition(":")
    if name == "golden":
        return "constant_norm", 1.0
    if name == "powertower":
        return "constant_norm", 2.0
    return name, float(param)


def _end(value, upper: bool):
    """The lower or upper end of a log, an interval or -inf; a pair (a, b) stands for max(a, b)."""
    if isinstance(value, tuple):
        return _larger(_end(value[0], upper), _end(value[1], upper))
    if value == NEG_INF:
        return NEG_INF
    return value.b if upper else value.a


def fold_end(spec: Spec, depth: int, ln_seed, upper: bool):
    """The lower (or upper) end of the exact fold of levels 1..depth - 1 over ``ln_seed``.

    The fold rises with every input, so it is bounded below by folding each
    input's lower end and above by folding its upper end.  Level k is the
    log-sum-exp high + 2**-k * log(1 + exp(2**k * (low - high))) of the pair
    (ln alpha_k, the level below); each level keeps the same end of its
    interval.  A pair more than 1e4 / 2**k apart adds below 2**-k * e**-1e4
    and is bounded by [0, 2**-k * 1e-4000].
    """
    level = _end(ln_seed, upper)
    for k in range(depth - 1, 0, -1):
        x = _end(spec.ln_alpha(k), upper)
        high = _larger(x, level)
        low = level if high is x else x
        if low == NEG_INF:
            level = high
            continue
        t = iv.ldexp(low - high, k)
        gain = iv.mpf([0, "1e-4000"]) if t.b < -1e4 else iv.log(1 + iv.exp(t))
        value = high + iv.ldexp(gain, -k)
        level = value.b if upper else value.a
    if level == NEG_INF:
        return mp.mpf(0)
    value = iv.exp(level)
    return mp.mpf(value.b if upper else value.a)


@contextlib.contextmanager
def _precision(bits: int):
    """``mpmath.iv`` and ``mpmath.mp`` at ``bits``, so an interval end converts exactly."""
    saved = iv.prec, mp.mp.prec
    iv.prec = mp.mp.prec = bits
    try:
        yield
    finally:
        iv.prec, mp.mp.prec = saved


def _run(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(argv)
    return status, out.getvalue()


def check_enclosure(spec: Spec, lo: float, hi: float, depth: int) -> None:
    """[lo, hi] holds the exact folds at the lower seed and at the boosted cap, and any closed-form limit."""
    with _precision(128 + depth):
        ln_lower, ln_cap = spec.seeds(depth)
        ln_boosted = _end(ln_cap, True)
        if ln_boosted != NEG_INF:
            ln_boosted = ln_boosted + iv.ldexp(iv.log(iv.phi), 1 - depth)
        assert lo <= fold_end(spec, depth, ln_lower, False), ("lower seed", depth, lo)
        assert fold_end(spec, depth, ln_boosted, True) <= hi, ("boosted cap", depth, hi)
        ln_limit = spec.limit_seed()
        if ln_limit is not None:
            length = len(spec.values) + 1
            assert lo <= fold_end(spec, length, ln_limit, False), ("limit", depth, lo)
            assert fold_end(spec, length, ln_limit, True) <= hi, ("limit", depth, hi)


def run_oracle(tmp, drawn) -> None:
    """Run one drawn spec as ``eval``, and as ``table`` where it is a family token, and check each enclosure."""
    text, cap_row, tol, depth_cap, depths = drawn
    if cap_row is not None:
        (tmp / "cap.csv").write_text("n,lower_seed,upper_cap\n%d,%r,%r\n" % cap_row, encoding="utf-8")
    path = tmp / "spec.txt"
    path.write_text(text, encoding="utf-8")
    spec = Spec(text, cap_row)
    status, out = _run(["eval", "--spec", str(path), "--tol", repr(tol), "--depth-cap", str(depth_cap)])
    assert status in (0, 3), (text, status, out)
    document = json.loads(out)
    assert document["converged"] == (status == 0), (text, document)
    assert not document["converged"] or document["width"] <= tol, (text, document)
    check_enclosure(spec, document["lo"], document["hi"], document["depth"])
    token = _family_token(text)
    if token is not None:
        status, out = _run(["table", "--family", token, "--depths", depths, "--format", "json"])
        assert status == 0, (token, status, out)
        for row in json.loads(out):
            check_enclosure(spec, row["lo"], row["hi"], row["depth"])


def _family_token(text: str) -> str | None:
    """The ``table --family`` token of a spec with no prefix and a constant tail, else None."""
    if text.startswith("family="):
        return text.splitlines()[0].removeprefix("family=")
    lines = text.splitlines()
    if lines[0].endswith("=[]") and lines[1].startswith(("tail=constant_raw:", "tail=constant_norm:")):
        return lines[1].removeprefix("tail=")
    return None


# ---------------------------------------------------------------------------
# the spec-text strategy


def _magnitudes(low: float, high: float):
    """Values whose decimal exponent e has low <= |e| <= high, either sign of e."""
    exponent = st.floats(low, high).flatmap(lambda e: st.sampled_from([e, -e]))
    return exponent.map(lambda e: 10.0**e)


def _prefix(scale: str, magnitudes):
    if scale == "lograw":
        value = st.one_of(st.just(NEG_INF), magnitudes.map(math.log))
    else:
        value = st.one_of(st.just(0.0), magnitudes)
    return st.lists(value, max_size=4)


def _tail(kind: str, magnitudes, length: int):
    """A tail token, and the cap row it reads; a cap row sits at the depth the prefix pins."""
    if kind == "zero":
        return st.just(("zero", None))
    if kind == "cap":
        row = st.tuples(st.floats(0.0, 1.0), magnitudes).map(
            lambda drawn: (length + 1, drawn[0] * drawn[1], drawn[1])
        )
        return row.map(lambda row: ("cap:cap.csv", row))
    param = st.one_of(st.just(0.0), magnitudes)
    return param.map(lambda value: (f"{kind}:{value!r}", None))


TAILS = ("zero", "constant_norm", "constant_raw", "omega", "cap")
SCALES = ("raw", "lograw", "norm")


@st.composite
def spec_texts(draw, prefix_magnitudes, tail_magnitudes, scales=SCALES, tails=TAILS):
    """(text, cap row, tol, depth cap, table depths) of one spec, in the README grammar."""
    scale = draw(st.sampled_from(scales))
    values = draw(_prefix(scale, prefix_magnitudes))
    token, cap_row = draw(_tail(draw(st.sampled_from(tails)), tail_magnitudes, len(values)))
    body = ",".join(map(repr, values))
    text = f"terms_{scale}=[{body}]\ntail={token}\n"
    if not values and token.startswith(("constant_raw:", "constant_norm:")) and draw(st.booleans()):
        text = f"family={token}\n"
    tol = 10.0 ** draw(st.floats(-16.0, 0.0)) * draw(st.sampled_from([1.0, 1e10, 1e100, 1e300]))
    first = draw(st.integers(1, 40))
    depths = f"{first}:{first + draw(st.integers(0, 8))}:{draw(st.integers(1, 4))}"
    return text, cap_row, tol, draw(st.integers(1, 64)), depths


def moderate():
    return _magnitudes(0.0, MODERATE)


def extreme():
    return _magnitudes(MODERATE, EXTREME)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("spec_oracle")


# ---------------------------------------------------------------------------
# bands that pass today


@settings(max_examples=200, deadline=None)
@given(spec_texts(moderate(), moderate()))
@example(("family=golden\n", None, 1e-9, 64, "1:9:4"))
@example(("family=powertower\n", None, 1e-12, 64, "4:12:4"))
@example(("terms_raw=[2.0,2.0]\ntail=constant_raw:2.0\n", None, 1e-9, 64, "1:1:1"))
def test_moderate_magnitudes_on_every_scale_and_tail(tmp, drawn):
    run_oracle(tmp, drawn)


@settings(max_examples=100, deadline=None)
@given(spec_texts(_magnitudes(0.0, EXTREME), moderate(), scales=("lograw",)))
def test_lograw_prefixes_at_every_magnitude(tmp, drawn):
    # a lograw value is ln(a_k) itself, and ln(alpha_k) = 2**-k * ln(a_k) is exact
    run_oracle(tmp, drawn)


# ---------------------------------------------------------------------------
# bands that fail today: each rounds a stored log past what the pads cover


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@settings(max_examples=25, deadline=None)
@given(spec_texts(extreme(), moderate(), scales=("raw",)))
# hi 2.2869193252058215e+128 at depth 2, below the exact 2.2869193252058543e+128
@example(("terms_raw=[5.23e256]\ntail=zero\n", None, 1e-6, 256, "1:1:1"))
def test_extreme_raw_prefixes(tmp, drawn):
    run_oracle(tmp, drawn)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@settings(max_examples=25, deadline=None)
@given(spec_texts(extreme(), moderate(), scales=("norm",)))
# lo 1.000000000000008e+100 at depth 1, above the exact 1.0000000000000000159e+100
@example(("terms_norm=[1e100]\ntail=zero\n", None, 1.0, 1, "1:1:1"))
def test_extreme_norm_prefixes(tmp, drawn):
    run_oracle(tmp, drawn)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@settings(max_examples=25, deadline=None)
@given(spec_texts(moderate(), extreme(), tails=("constant_raw",)))
# converged, with lo 1.0000000000000049e+100 at depth 2, above the exact
# 9.9999999999999998e+99 (and the table's lo 1.000000000000008e+100 at depth 1)
@example(("family=constant_raw:1e200\n", None, 1e88, 256, "1:3:1"))
def test_extreme_constant_raw_tails(tmp, drawn):
    run_oracle(tmp, drawn)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@settings(max_examples=25, deadline=None)
@given(spec_texts(moderate(), extreme(), tails=("constant_norm",)))
# lo 6.094760753197519e+137 at depth 1, above the exact 6.0947607531974647e+137
@example(("family=constant_norm:6.094760753197465e137\n", None, 1e300, 44, "16:16:2"))
def test_extreme_constant_norm_tails(tmp, drawn):
    run_oracle(tmp, drawn)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b-i")
@settings(max_examples=25, deadline=None)
@given(spec_texts(moderate(), extreme(), tails=("omega",)))
# lo 1.0000000000000166e+200 at depth 1, above the exact 9.9999999999999997e+199
@example(("terms_raw=[]\ntail=omega:1e200\n", None, 1e250, 1, "1:1:1"))
def test_extreme_omega_tails(tmp, drawn):
    run_oracle(tmp, drawn)


@settings(max_examples=25, deadline=None)
@given(spec_texts(moderate(), extreme(), tails=("cap",)))
# rows whose lower seed's log, rounded to nearest, put lo above the row at
# depth 1: 8.194129554070473e-211 above 8.194129554070385e-211, and a
# converged 151949014451733.75 above 151949014451733.72
@example(("terms_lograw=[]\ntail=cap:cap.csv\n", (1, 8.194129554070385e-211, 1.6e-210), 0.02, 47, "1:1:1"))
@example(("terms_raw=[]\ntail=cap:cap.csv\n", (1, 151949014451733.72, 151949014451733.72), 1e300, 256, "1:1:1"))
def test_extreme_cap_rows(tmp, drawn):
    run_oracle(tmp, drawn)


def test_a_cap_row_bounds_its_converged_eval(tmp):
    # a row with |ln| above 32, whose log rounded to nearest passes the 16 ulp
    # pad at depth 1
    row = (1, 151949014451733.72, 151949014451733.72)
    (tmp / "cap.csv").write_text("n,lower_seed,upper_cap\n%d,%r,%r\n" % row, encoding="utf-8")
    (tmp / "spec.txt").write_text("terms_raw=[]\ntail=cap:cap.csv\n", encoding="utf-8")
    status, out = _run(["eval", "--spec", str(tmp / "spec.txt"), "--tol", "1e300"])
    document = json.loads(out)
    assert (status, document["converged"], document["depth"]) == (0, True, 1)
    assert document["lo"] <= row[1] and row[2] <= document["hi"]
