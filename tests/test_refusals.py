"""Every refusal below, with its exact message.

CLI cases give exit 2, empty stdout and the pinned stderr; library cases
raise the pinned exception.  Two inputs that sit next to refusals and are
accepted (a blank cap-table row, an empty ``terms_raw`` list) are pinned by
the repr they return.
"""

import math

import pytest

from nestrad import cli
from nestrad.contfn import ContinuedSpec, cf_limit
from nestrad.kappa import kappa_enclosure
from nestrad.nested import ARCTAN
from nestrad.seqspec import (
    CapTableTail,
    ConstantRawTail,
    SequenceSpec,
    SpecError,
    TailModel,
    explicit,
    load_cap_table,
    parse_spec,
)
from nestrad.ufunc import u_inverse


class FixedSeedTail(TailModel):
    """A tail of ones whose seed logs are the same pair at every depth."""

    __slots__ = ("ln_lower", "ln_cap")

    def __init__(self, ln_lower, ln_cap):
        self._set_ln_lower(self, ln_lower)
        self._set_ln_cap(self, ln_cap)

    def ln_alphas(self, first, last):
        return [0.0] * (last - first + 1)

    def ln_bounds(self, n):
        return (self.ln_lower, self.ln_cap)


def non_finite_seed(name, ln_lower, ln_cap, got):
    # the boosted cap at depth 3 is ln_cap + ln(phi) / 4, one step up
    return raises(
        name,
        lambda tmp: kappa_enclosure(SequenceSpec((), FixedSeedTail(ln_lower, ln_cap)), 3),
        ValueError,
        f"seed logs must lie in [-inf, inf), got {got}",
    )


def cap_file(text):
    def load(tmp_path):
        path = tmp_path / "caps.csv"
        path.write_text(text, encoding="utf-8")
        return load_cap_table(path)

    return load


def refused_cli(argv, stderr):
    return pytest.param(("cli", argv, None, stderr), id=" ".join(argv))


def raises(name, call, error, message):
    return pytest.param(("raise", call, error, message), id=name)


def accepts(name, call, result):
    return pytest.param(("accept", call, None, result), id=name)


GOLDEN_TABLE = ["table", "--family", "golden", "--depths"]
BRACKET_1E300 = (
    "U^-1(1e+300) cannot be bracketed to 1e-10: "
    "floats near 6.1803398874989486e+299 are 7.435084542388915e+283 apart"
)
CASES = [
    refused_cli(["u", "--grid", "1:2"], "nestrad: error: --grid expects rmin:rmax:count, got '1:2'\n"),
    refused_cli(["u", "--grid", "1:x:3"], "nestrad: error: bad --grid value '1:x:3'\n"),
    refused_cli([*GOLDEN_TABLE, "1:2"], "nestrad: error: --depths expects lo:hi:step, got '1:2'\n"),
    refused_cli([*GOLDEN_TABLE, "1:x:1"], "nestrad: error: bad --depths value '1:x:1'\n"),
    *(
        refused_cli(
            [*GOLDEN_TABLE, depths],
            f"nestrad: error: --depths needs 1 <= lo <= hi and step >= 1, got '{depths}'\n",
        )
        for depths in ("0:2:1", "3:2:1", "1:2:0")
    ),
    refused_cli(
        ["eval", "--family", "golden", "--depth-cap", "0"],
        "nestrad eval: error: argument --depth-cap: expected a positive integer, got '0'\n",
    ),
    refused_cli(
        ["eval", "--spec", "{tmp}/missing.spec"],
        "nestrad: error: cannot read spec file '{tmp}/missing.spec': "
        "[Errno 2] No such file or directory: '{tmp}/missing.spec'\n",
    ),
    refused_cli(
        ["cf", "--fn", "arctan", "--terms", ","], "nestrad: error: --terms must list at least one term\n"
    ),
    *(
        refused_cli(["cf", "--fn", "arctan", "--terms", terms], f"nestrad: error: bad --terms value '{terms}'\n")
        for terms in ("1,,2", "1,", ",1")
    ),
    refused_cli(
        ["cf", "--fn", "arctan", "--terms", "1,-1"],
        "nestrad: error: continued-function terms must be finite and >= 0, got -1.0\n",
    ),
    # refused when the spec is made, not only when a fold reaches the term
    *(
        raises(
            f"cf_limit terms [1.0, {term}]",
            lambda tmp, term=term: cf_limit(ContinuedSpec(ARCTAN, [1.0, term]), 2.0),
            ValueError,
            f"continued-function terms must be finite and >= 0, got {term}",
        )
        for term in (-5.0, math.nan)
    ),
    raises(
        "emit_table row",
        lambda tmp: cli.emit_table([(1, 2)], ["a"], "csv"),
        ValueError,
        "row (1, 2) does not match columns ['a']",
    ),
    raises(
        "ConstantRawTail(-1)",
        lambda tmp: ConstantRawTail(-1.0),
        ValueError,
        "tail raw value must be finite and >= 0, got -1.0",
    ),
    raises(
        "cap table depth 0",
        lambda tmp: CapTableTail(((0, 1.0, 1.0),)),
        SpecError,
        "cap table depth must be >= 1, got 0",
    ),
    raises("empty cap file", cap_file(""), SpecError, "cap table {tmp}/caps.csv is empty"),
    raises(
        "two-column cap row",
        cap_file("n,lower_seed,upper_cap\n1,1.0\n"),
        SpecError,
        "cap table {tmp}/caps.csv line 2: expected 3 columns",
    ),
    accepts(
        "blank cap row",
        cap_file("n,lower_seed,upper_cap\n\n1,1.0,1.0\n"),
        "CapTableTail(rows=((1, 1.0, 1.0),))",
    ),
    raises(
        "explicit scale",
        lambda tmp: explicit([1.0], scale="bogus"),
        ValueError,
        "unknown term scale 'bogus'",
    ),
    raises(
        "terms_raw=[1,x]",
        lambda tmp: parse_spec("terms_raw=[1,x]"),
        SpecError,
        "line 1: bad number in list '[1,x]'",
    ),
    accepts(
        "terms_raw=[]", lambda tmp: parse_spec("terms_raw=[]"), "SequenceSpec(prefix=(), tail=ZeroTail())"
    ),
    raises(
        "tail=cap:",
        lambda tmp: parse_spec("terms_raw=[1]\ntail=cap:"),
        SpecError,
        "line 2: tail cap needs a file path, e.g. cap:bounds.csv",
    ),
    raises(
        "two family lines",
        lambda tmp: parse_spec("family=golden\nfamily=golden"),
        SpecError,
        "line 2: duplicate family line",
    ),
    raises(
        "two tail lines",
        lambda tmp: parse_spec("terms_raw=[1]\ntail=zero\ntail=zero"),
        SpecError,
        "line 3: duplicate tail line",
    ),
    # a NaN or +inf seed log, from either bound, is refused by the fold
    non_finite_seed("infinite lower seed", math.inf, 0.0, "inf and inf"),
    non_finite_seed("NaN lower seed", math.nan, 0.0, "nan and 0.12030295626490088"),
    non_finite_seed("infinite cap", 0.0, math.inf, "0.0 and inf"),
    non_finite_seed("NaN cap", 0.0, math.nan, "0.0 and nan"),
    # 4 * 1e308 overflows, so the fixed point's log and the lower seed's are +inf
    refused_cli(
        ["eval", "--family", "constant_raw:1e308"],
        "nestrad: error: seed logs must lie in [-inf, inf), got inf and inf\n",
    ),
    # the cap's log, golden-boosted, is finite; the fold's last step overflows
    refused_cli(
        ["u", "--r", "1.7e308", "--tol", "1e300"],
        "nestrad: error: the nested radical exceeds binary64 (about 1.8e308)\n",
    ),
    refused_cli(
        ["u-inv", "--y", "1.7976931348623157e308", "--tol", "1e300"],
        "nestrad: error: the nested radical exceeds binary64 (about 1.8e308)\n",
    ),
    # floats near the root are too far apart; this is refused before the
    # predicted depth is computed, which would overflow at this y and tol
    refused_cli(
        ["u-inv", "--y", "1e300", "--tol", "1e-10"],
        f"nestrad: error: {BRACKET_1E300}\n",
    ),
    raises("u_inverse(1e300, 1e-10)", lambda tmp: u_inverse(1e300, 1e-10), RuntimeError, BRACKET_1E300),
    raises(
        "u_inverse(inf)",
        lambda tmp: u_inverse(math.inf),
        ValueError,
        "need finite y and tol > 0, got y=inf, tol=1e-06",
    ),
]


@pytest.mark.parametrize("case", CASES)
def test_refusal(case, capsys, tmp_path):
    # detail is the exception type of a raised case
    kind, action, detail, expected = case
    expected = expected.replace("{tmp}", str(tmp_path))
    if kind == "cli":
        status = cli.run([arg.replace("{tmp}", str(tmp_path)) for arg in action])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == ""
        # argparse refusals lead with a usage block sized to the terminal
        assert err == expected or (err.startswith("usage:") and err.endswith("\n" + expected))
    elif kind == "accept":
        assert repr(action(tmp_path)) == expected
    else:
        with pytest.raises(detail) as info:
            action(tmp_path)
        assert str(info.value) == expected
