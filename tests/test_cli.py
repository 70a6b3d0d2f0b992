import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import nestrad
from nestrad import DEFAULT_DEPTH_CAP, PHI, cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    status = cli.run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# stdout of every README invocation, pinned byte for byte.  The README's
# example spec document is README_SPEC.
README_SPEC = "terms_raw=[2,2,2]\ntail=constant_raw:2\n"

README_DOCUMENTS = {
    "eval --family golden --tol 1e-10": (
        '{"lo": 1.6180339887070132, "hi": 1.6180339887499693, '
        '"mid": 1.6180339887284911, "width": 4.2956083134981782e-11, '
        '"width_bound": 4.5891965013129433e-07, "depth": 21, "converged": true}\n'
    ),
    "eval --family constant_raw:6": (
        '{"lo": 2.9999999999999072, "hi": 3.000000000429174, '
        '"mid": 3.0000000002145404, "width": 4.2926684429289708e-10, '
        '"width_bound": 6.8008653302651224e-05, "depth": 13, "converged": true}\n'
    ),
    "eval --spec my_radical.spec": (
        '{"lo": 1.9999999999998863, "hi": 2.0000000002623519, '
        '"mid": 2.0000000001311191, "width": 2.6246560480558401e-10, '
        '"width_bound": 4.1089284899326892e-06, "depth": 16, "converged": true}\n'
    ),
    "table --family ramanujan --depths 4:32:4": (
        'depth,lo,hi,width,width_bound\n'
        '4,2.5598301653000899,3.1437368709335098,0.58390670563341995,0.71903065796224652\n'
        '8,2.9627230042795225,3.0082770584238387,0.045554054144316236,0.05944452878559512\n'
        '12,2.9973274414786117,3.0005029514942412,0.0031755100156294347,0.004198543209059157\n'
        '16,2.9998179175844637,3.0000309713042577,0.00021305371979396526,0.00028386017106663371\n'
        '20,2.9999878805993521,3.0000019175833215,1.4036983969401007e-05,1.8803467701135385e-05\n'
        '24,2.9999992042360066,3.0000001190677463,9.1483173969564291e-07,1.2303817397845569e-06\n'
        '28,2.9999999482157982,3.0000000074062978,5.9190499612782332e-08,7.985046280973561e-08\n'
        '32,2.9999999966512387,3.0000000004615894,3.8103507016273852e-09,5.1526751267565033e-09\n'
    ),
    "u --r 2 --tol 1e-6": (
        '{"r": 2, "lo": 2.2642652660461091, "hi": 2.2642660502954572, '
        '"mid": 2.2642656581707832, "width": 7.8424934812915126e-07, '
        '"width_bound": 9.1783930044934142e-07, "depth": 21, "converged": true}\n'
    ),
    "u --grid 1:10:25 --format csv": (
        'r,u_lo,u_hi\n'
        '1,1.6180339883015455,1.6180339887499624\n'
        '1.375,1.7809722416811473,1.7809722424754499\n'
        '1.75,2.0566763604660316,2.0566763610955943\n'
        '2.125,2.3722727720986723,2.372272772930534\n'
        '2.5,2.7074906601176392,2.7074906606286215\n'
        '2.875,3.0539050832609518,3.0539050838634143\n'
        '3.25,3.4073366259846201,3.407336626676579\n'
        '3.625,3.7654654255383786,3.7654654263185545\n'
        '4,4.1268971950230791,4.1268971958910532\n'
        '4.375,4.4907421714274554,4.4907421723821495\n'
        '4.75,4.8564052072647517,4.8564052077857136\n'
        '5.125,5.2234728085158224,5.2234728090797367\n'
        '5.5,5.5916485439396375,5.5916485445463691\n'
        '5.875,5.9607142383687455,5.9607142390181869\n'
        '6.25,6.3305056746250141,6.3305056753170756\n'
        '6.625,6.7008968379204186,6.7008968386550309\n'
        '7,7.0717893876930003,7.0717893884701031\n'
        '7.375,7.4431054364031404,7.4431054372226821\n'
        '7.75,7.8147824818495346,7.8147824827114762\n'
        '8.125,8.1867697780572666,8.1867697789625087\n'
        '8.5,8.5590256890963161,8.5590256900438852\n'
        '8.875,8.9315157281728048,8.9315157291626797\n'
        '9.25,9.3042110832161047,9.3042110837331755\n'
        '9.625,9.6770874935278801,9.6770874940660825\n'
        '10,10.050124383557367,10.050124384116689\n'
    ),
    "u-inv --y 3 --tol 1e-6": (
        '{"y": 3, "r": 2.8172244572074625, "tol": 9.9999999999999995e-07}\n'
    ),
    "caps --mh 1 --eps 0.1": (
        '{"m_h": 1, "epsilon": 0.10000000000000001, "lo": 1, '
        '"hi": 1.2711378789451131}\n'
    ),
    "cf --fn arctan --terms 1,1,1 --tol 2": (
        '{"lo": 0.78539816339744473, "hi": 1.1998219639744929, '
        '"mid": 0.99261006368596882, "width": 0.4144238005770482, '
        '"width_bound": 0.41442380057704997, "depth": 1, "converged": true}\n'
    ),
}


def readme_argv(invocation: str, tmp_path: Path) -> list[str]:
    """argv of a README invocation, its spec file written under tmp_path."""
    argv = invocation.split()
    if "--spec" in argv:
        spec = tmp_path / argv[argv.index("--spec") + 1]
        spec.write_text(README_SPEC, encoding="utf-8")
        argv[argv.index("--spec") + 1] = str(spec)
    return argv


@pytest.mark.parametrize("invocation", sorted(README_DOCUMENTS))
def test_readme_documents_are_byte_identical(invocation, capsys, tmp_path: Path):
    status, out, err = run_cli(capsys, *readme_argv(invocation, tmp_path))
    assert (status, err) == (0, "")
    assert out == README_DOCUMENTS[invocation]


# U^-1 documents whose low bits come from the fold's swamped levels and the
# closed-form peel, pinned byte for byte: a supremum in the flat region, whose
# predicted probe peels far, a deeply swamped U fold, and a root near 1.
U_INVERSE_DOCUMENTS = {
    "caps --mh 1 --eps 1e-12 --format csv": (
        'm_h,epsilon,lo,hi\n'
        '1,9.9999999999999998e-13,1,1.0000000831109719\n'
    ),
    "u-inv --y 500 --tol 1e-9": '{"y": 500, "r": 499.99899999694503, "tol": 1.0000000000000001e-09}\n',
    "u-inv --y 1.6180339887499 --tol 1e-12": (
        '{"y": 1.6180339887499, "r": 1.0000000148577235, "tol": 9.9999999999999998e-13}\n'
    ),
}


@pytest.mark.parametrize("invocation", sorted(U_INVERSE_DOCUMENTS))
def test_u_inverse_documents_are_byte_identical(invocation, capsys):
    assert run_cli(capsys, *invocation.split()) == (0, U_INVERSE_DOCUMENTS[invocation], "")


def test_grid_ends_at_r_max(capsys):
    # 4.95 + (7.53 - 4.95) * 7 / 7 rounds to 7.5300000000000011, past r_max
    status, out, err = run_cli(capsys, "u", "--grid", "4.95:7.53:8", "--format", "csv")
    assert (status, err) == (0, "")
    assert out.splitlines()[-1].startswith("7.5300000000000002,")


def test_grid_wider_than_its_products_runs(capsys):
    # (1e308 - 0) * 2 overflows, so this grid divides before it multiplies;
    # U is finite at each of its four samples
    status, out, err = run_cli(capsys, "u", "--grid", "0:1e308:4", "--tol", "1e300", "--format", "csv")
    assert (status, err) == (0, "")
    rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 4 and all(math.isfinite(cell) for row in rows for cell in row)
    assert [row[0] for row in rows] == [0.0, 1e308 / 3, 1e308 / 3 * 2, 1e308]


def test_shared_parser_is_reentrant(capsys, tmp_path: Path):
    # One process, one reader and one argparse tree: subcommand defaults
    # (u-inv's --tol 1e-6, table's csv format) and rejected argv must not leak
    # into later calls on either path.
    invocations = sorted(README_DOCUMENTS)

    def run_all(order):
        for invocation in order:
            status, out, err = run_cli(capsys, *readme_argv(invocation, tmp_path))
            assert (status, out, err) == (0, README_DOCUMENTS[invocation], ""), invocation

    run_all(invocations)
    status, out, err = run_cli(capsys, "eval")  # refused by argparse
    assert (status, out) == (2, "") and err.startswith("usage: nestrad eval")
    status, out, err = run_cli(capsys, "caps", "--mh", "0", "--eps", "1")  # refused by its type
    assert (status, out) == (2, "") and "expected a positive number" in err
    status, out, err = run_cli(capsys, "u", "--r", "-3")  # refused by the handler
    assert (status, out) == (2, "") and err.startswith("nestrad: error: --r must be")
    run_all(reversed(invocations))


def test_usage_follows_the_terminal_width(capsys, monkeypatch):
    # the parser keeps its usage text per width; each refusal must still print
    # the text argparse itself formats at the width of the moment
    parser = cli._build_parser()
    texts = []
    for columns in ("200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        status, out, err = run_cli(capsys)
        usage = argparse.ArgumentParser.format_usage(parser)
        assert (status, out) == (2, "") and err.startswith(usage)
        texts.append(usage)
    assert texts[0] == texts[2] != texts[1]


def test_coloured_usage_is_never_cached(monkeypatch):
    # Python 3.14 may colour the usage by the stream, so a parser with a
    # truthy color attribute formats it afresh at each call, even at one width
    parser = cli._build_parser()
    calls = []
    format_usage = argparse.ArgumentParser.format_usage

    def counted(self):
        calls.append(self)
        return format_usage(self)

    monkeypatch.setenv("COLUMNS", "120")
    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counted)
    parser.format_usage()
    calls.clear()
    assert parser.format_usage() == parser.format_usage()
    assert calls == []  # uncoloured, the width's text is cached
    monkeypatch.setattr(parser, "color", True, raising=False)
    first, second = parser.format_usage(), parser.format_usage()
    assert calls == [parser, parser]
    assert first == second


# The one-pass reader against argparse, over a token alphabet: subcommands,
# each flag in full, abbreviated and as --flag=value, help, "--", and values
# that convert, fail to convert or start with "-".  Each flag's usual value
# keeps most draws well-formed, so the reader's answers are compared too.
USUAL = {
    "--family": "golden", "--spec": "x.spec", "--tol": "1e-9", "--depth-cap": "8", "--format": "json",
    "--out": "out.txt", "--r": "2", "--grid": "1:2:3", "--y": "2", "--mh": "2", "--eps": "0.5",
    "--fn": "arctan", "--terms": "1,2", "--depths": "1:3:1",
}
OWN_FLAGS = {
    "eval": ("--family", "--spec", "--tol", "--depth-cap", "--format", "--out"),
    "u": ("--r", "--grid", "--tol", "--depth-cap", "--format", "--out"),
    "u-inv": ("--y", "--tol", "--depth-cap", "--format", "--out"),
    "caps": ("--mh", "--eps", "--format", "--out"),
    "cf": ("--fn", "--terms", "--tol", "--depth-cap", "--format", "--out"),
    "table": ("--family", "--depths", "--format", "--out"),
}
VALUES = (
    "1e-9", "-3.5", "nan", "", "csv", "json", "xml", "1:2:3", "1:x", "golden", "arctan", "2", "1,2",
    "-h", "--", "-", "-x",
)
PAIRS = {"eval": ("--family", "--spec"), "u": ("--r", "--grid")}
FORMS = ("full",) * 40 + ("abbreviated", "equals", "flag only", "value only", "-h", "--")


@st.composite
def argv_tokens(draw):
    command = draw(st.sampled_from((*OWN_FLAGS, "frobnicate")))
    pair = PAIRS.get(command, ())
    flags = [flag for flag in OWN_FLAGS.get(command, ()) if flag not in pair and draw(st.integers(0, 3))]
    flags += draw(st.sampled_from((pair[:1], pair[1:], pair[:1], pair[1:], pair, ())))
    if draw(st.integers(0, 3)) == 0:  # repeated or foreign flags
        flags += draw(st.lists(st.sampled_from(sorted(USUAL)), min_size=1, max_size=2))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(st.sampled_from(VALUES)) if draw(st.integers(0, 3)) == 0 else USUAL[flag]
        form = draw(st.sampled_from(FORMS))
        if form == "full":
            argv += [flag, value]
        elif form == "abbreviated":
            argv += [flag[: draw(st.integers(3, max(3, len(flag) - 1)))], value]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "flag only":
            argv.append(flag)
        elif form == "value only":
            argv.append(value)
        else:
            argv.append(form)
    return argv


def parse_with_argparse(argv):
    """argparse's namespace for argv, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


def fields(namespace):
    # repr tells 1 from 1.0 and keeps NaN equal to itself
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


@settings(max_examples=500)
@given(argv=argv_tokens())
@example(argv=["u-inv", "--y", "2"])
@example(argv=["eval", "--family", "golden", "--spec", "x"])
@example(argv=["u", "--tol", "1e-9"])
@example(argv=["caps", "--mh", "2", "--eps", "2", "--out", "-h"])
def test_reader_declines_or_matches_argparse(argv):
    namespace = cli._read(argv)
    event("read in one pass" if namespace is not None else "left to argparse")
    if namespace is not None:
        reference = parse_with_argparse(argv)
        assert reference is not None, argv
        assert fields(namespace) == fields(reference), argv


@pytest.mark.parametrize("invocation", sorted(README_DOCUMENTS))
def test_reader_takes_the_readme_invocations(invocation, tmp_path: Path):
    argv = readme_argv(invocation, tmp_path)
    namespace = cli._read(argv)
    assert namespace is not None
    assert fields(namespace) == fields(parse_with_argparse(argv))


# Forms that only argparse reads: help, abbreviations, --flag=value, negative
# values and conflicting flags, each with its exit code and output.
@pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"]])
def test_help_is_printed_by_argparse(capsys, argv):
    assert cli._read(argv) is None
    status, out, err = run_cli(capsys, *argv)
    assert (status, err) == (0, "")
    assert out.startswith("usage: nestrad")


def test_abbreviated_and_equals_flags_give_the_full_form_document(capsys):
    argv = ["eval", "--fam", "golden", "--tol=1e-10"]
    assert cli._read(argv) is None
    assert run_cli(capsys, *argv) == (0, README_DOCUMENTS["eval --family golden --tol 1e-10"], "")


def test_negative_value_reaches_the_handler(capsys):
    assert cli._read(["u", "--r=-3"]) is None
    status, out, err = run_cli(capsys, "u", "--r=-3")
    assert (status, out) == (2, "")
    assert err.startswith("nestrad: error: --r must be")


def test_conflicting_flags_are_refused_by_argparse(capsys):
    argv = ["eval", "--family", "golden", "--spec", "x"]
    assert cli._read(argv) is None
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("usage: nestrad eval")
    assert "argument --spec: not allowed with argument --family" in err


class TestProcess:
    """``python -m nestrad`` from the source tree, without an install."""

    @staticmethod
    def run_module(*argv, stdout=subprocess.PIPE, preexec_fn=None, **environ):
        env = dict(os.environ, PYTHONPATH=str(SRC), **environ)
        return subprocess.run(
            [sys.executable, "-m", "nestrad", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE,
            preexec_fn=preexec_fn, text=True, timeout=60, check=False,
        )

    def test_readme_document(self):
        invocation = "eval --family golden --tol 1e-10"
        done = self.run_module(*invocation.split())
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == README_DOCUMENTS[invocation]

    def test_usage_error(self):
        done = self.run_module("eval")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: nestrad eval")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        ("argv", "status", "stderr"),
        [
            (["eval", "--family", "golden"], 2, "nestrad: error: cannot write standard output: "),
            (["eval", "-h"], 0, ""),  # argparse drops its help and keeps its status
        ],
    )
    def test_closed_stdout_pipe(self, argv, status, stderr, unbuffered):
        # the read end is closed before the process starts, so every write to
        # standard output fails, in run or in the interpreter's last flush of a
        # buffered stream: at most one error line, and never a traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.run_module(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert done.returncode == status
        assert done.stderr.startswith(stderr) and done.stderr.count("\n") == (1 if stderr else 0)
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["eval", "--family", "golden"], "nestrad: error: cannot write standard output: "),
            (["eval", "--family", "golden", "--tol", "0"], "nestrad eval: error: argument --tol: "),
        ],
        ids=("valid", "refused"),
    )
    def test_closed_stdout_fd(self, argv, error):
        # fd 1 is closed before the interpreter starts, so sys.stdout is None:
        # exit 2 with one error line after argparse's usage, if any
        done = self.run_module(*argv, stdout=None, preexec_fn=lambda: os.close(1))
        assert done.returncode == 2
        assert [line for line in done.stderr.splitlines() if "error:" in line] == [done.stderr.splitlines()[-1]]
        assert done.stderr.splitlines()[-1].startswith(error)
        assert "Traceback" not in done.stderr


    @pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"]])
    def test_closed_stdout_fd_drops_the_help(self, argv):
        # argparse would print help meant for a closed stdout to stderr instead
        done = self.run_module(*argv, stdout=None, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (0, "")


class TestEval:
    def test_golden_json(self, capsys):
        status, out, err = run_cli(capsys, "eval", "--family", "golden", "--tol", "1e-8")
        assert status == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["converged"] is True
        assert abs(doc["mid"] - PHI) <= 1e-8
        assert doc["lo"] <= PHI <= doc["hi"]
        assert set(doc) == {"lo", "hi", "mid", "width", "width_bound", "depth", "converged"}

    def test_csv_format(self, capsys):
        status, out, _ = run_cli(
            capsys, "eval", "--family", "golden", "--tol", "1e-6", "--format", "csv"
        )
        assert status == 0
        header, row = out.strip().splitlines()
        assert header == "lo,hi,mid,width,width_bound,depth,converged"
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(PHI, abs=1e-6)
        assert cells[6] == "true"

    def test_spec_file(self, capsys, tmp_path: Path):
        spec = tmp_path / "radical.spec"
        spec.write_text("family=constant_raw:6\n", encoding="utf-8")
        status, out, _ = run_cli(capsys, "eval", "--spec", str(spec))
        assert status == 0
        assert json.loads(out)["mid"] == pytest.approx(3.0, abs=1e-9)

    def test_spec_path_is_never_a_family_token(self, capsys, tmp_path: Path, monkeypatch):
        # a file literally named family:golden is read, not taken as a family
        monkeypatch.chdir(tmp_path)
        Path("family:golden").write_text("family=powertower\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "eval", "--spec", "family:golden")
        assert (status, err) == (0, "")
        doc = json.loads(out)
        assert doc["lo"] <= 2.0 * PHI <= doc["hi"]
        status, out, err = run_cli(capsys, "eval", "--spec", "family:nosuch")
        assert (status, out) == (2, "")
        assert "cannot read spec file" in err

    def test_spec_file_with_cap_table(self, capsys, tmp_path: Path):
        (tmp_path / "caps.csv").write_text(
            "n,lower_seed,upper_cap\n4,0.5,1.5\n", encoding="utf-8"
        )
        spec = tmp_path / "radical.spec"
        spec.write_text("terms_norm=[1,1,1]\ntail=cap:caps.csv\n", encoding="utf-8")
        status, out, _ = run_cli(capsys, "eval", "--spec", str(spec), "--tol", "1e-9")
        assert status == 3
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["lo"] <= PHI <= doc["hi"]

    def test_spec_file_stops_at_its_swamp_depth(self, capsys, tmp_path: Path):
        # the last coefficient swamps both seeds at depth 14 and deeper, so no
        # deeper enclosure is narrower and the search stops there unconverged
        spec = tmp_path / "radical.spec"
        spec.write_text("terms_norm=[1,1,1,1,1,1,1,1,1,1,1,1,2]\ntail=zero\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "eval", "--spec", str(spec), "--tol", "1e-300")
        assert (status, err) == (3, "")
        doc = json.loads(out)
        assert (doc["depth"], doc["width"], doc["converged"]) == (14, 1.9895196601282805e-13, False)

    def test_depth_cap_exit_code(self, capsys):
        status, out, _ = run_cli(
            capsys, "eval", "--family", "golden", "--tol", "1e-10", "--depth-cap", "8"
        )
        assert status == 3
        assert json.loads(out)["converged"] is False

    def test_bad_family_exit_2(self, capsys):
        status, out, err = run_cli(capsys, "eval", "--family", "nope")
        assert status == 2
        assert out == ""
        assert "error" in err

    def test_empty_family_exit_2(self, capsys):
        status, out, err = run_cli(capsys, "eval", "--family", "")
        assert (status, out) == (2, "")
        assert "unknown family" in err

    def test_negative_term_in_spec_file(self, capsys, tmp_path: Path):
        spec = tmp_path / "bad.spec"
        spec.write_text("terms_raw=[-1]\n", encoding="utf-8")
        status, _, err = run_cli(capsys, "eval", "--spec", str(spec))
        assert status == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "body", ["terms_lograw=[1500]", "terms_lograw=[-1e4]", "terms_raw=[nan]"]
    )
    def test_out_of_range_lograw_in_spec_file(self, capsys, tmp_path: Path, body):
        # ln(alpha_1) = 750 overflows exp, -5000 flushes alpha_1 to zero, and
        # a NaN coefficient is refused on every scale
        spec = tmp_path / "bad.spec"
        spec.write_text(f"# comment\n{body}\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "eval", "--spec", str(spec))
        assert (status, out) == (2, "")
        assert err.startswith("nestrad: error: line 2:")

    def test_huge_coefficients_keep_a_finite_mid(self, capsys, tmp_path: Path):
        spec = tmp_path / "huge.spec"
        spec.write_text("terms_norm=[1e308,1e308]\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "eval", "--spec", str(spec))
        assert (status, err) == (3, "")
        doc = json.loads(out)
        assert doc["lo"] <= doc["mid"] <= doc["hi"] < float("inf")

    def test_radical_past_binary64_exit_2(self, capsys, tmp_path: Path):
        # every coefficient fits binary64, but the radical is about 1.5e308 * phi
        spec = tmp_path / "huge.spec"
        spec.write_text("terms_norm=[1.5e308]\ntail=constant_norm:1.5e308\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "eval", "--spec", str(spec))
        assert (status, out) == (2, "")
        assert "exceeds binary64" in err and "Traceback" not in err

    @pytest.mark.parametrize("family", ["powertower", "constant_norm:2", "ramanujan"])
    def test_depth_cap_past_1023_exit_3(self, capsys, family):
        status, out, err = run_cli(
            capsys, "eval", "--family", family, "--depth-cap", "2048", "--tol", "1e-300"
        )
        assert (status, err) == (3, "")
        assert json.loads(out)["converged"] is False

    def test_missing_spec_file(self, capsys, tmp_path: Path):
        status, _, err = run_cli(capsys, "eval", "--spec", str(tmp_path / "absent.spec"))
        assert status == 2
        assert "cannot read" in err

    def test_out_file(self, capsys, tmp_path: Path):
        target = tmp_path / "result.json"
        status, out, _ = run_cli(
            capsys, "eval", "--family", "golden", "--tol", "1e-6", "--out", str(target)
        )
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["converged"] is True

    def test_unwritable_out_path(self, capsys, tmp_path: Path):
        status, _, err = run_cli(
            capsys,
            "eval", "--family", "golden", "--tol", "1e-6",
            "--out", str(tmp_path / "no_such_dir" / "x.json"),
        )
        assert status == 2
        assert "cannot write" in err

    def test_determinism(self, capsys):
        argv = ("eval", "--family", "ramanujan", "--tol", "1e-6")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_environment_sets_no_depth_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("KAPPA_DEPTH_CAP", "0")
        for invocation in ("eval --family golden --tol 1e-10", "caps --mh 1 --eps 0.1"):
            assert run_cli(capsys, *invocation.split()) == (0, README_DOCUMENTS[invocation], "")


class TestUCommands:
    def test_u_point(self, capsys):
        status, out, _ = run_cli(capsys, "u", "--r", "2", "--tol", "1e-6")
        assert status == 0
        doc = json.loads(out)
        assert doc["r"] == 2
        assert doc["lo"] <= 2.2642652660462583 <= doc["hi"]

    def test_u_grid_csv(self, capsys):
        status, out, _ = run_cli(
            capsys, "u", "--grid", "1:3:5", "--tol", "1e-8", "--format", "csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,u_lo,u_hi"
        assert len(lines) == 6
        lows = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_u_inv(self, capsys):
        status, out, _ = run_cli(capsys, "u-inv", "--y", "1.6180339887", "--tol", "1e-6")
        assert status == 0
        doc = json.loads(out)
        assert doc["r"] == pytest.approx(1.0, abs=1e-6)

    def test_u_inv_domain_error(self, capsys):
        status, _, err = run_cli(capsys, "u-inv", "--y", "1.0")
        assert status == 2
        assert "below" in err

    def test_u_negative_r(self, capsys):
        status, _, err = run_cli(capsys, "u", "--r", "-3")
        assert status == 2

    def test_u_grid_honours_depth_cap(self, capsys):
        # width 1e-9 needs depth 21 at r = 1; a grid cannot report unconverged rows
        status, out, err = run_cli(capsys, "u", "--grid", "1:2:3", "--depth-cap", "4")
        assert (status, out) == (2, "")
        assert "within depth 4" in err

    def test_u_inv_honours_depth_cap(self, capsys):
        # depth-4 enclosures of U are ~0.2 wide, far above tol/4
        status, out, err = run_cli(capsys, "u-inv", "--y", "3", "--tol", "1e-9", "--depth-cap", "4")
        assert (status, out) == (2, "")
        assert "within depth 4" in err
        invocation = "u-inv --y 3 --tol 1e-6"
        status, out, _ = run_cli(capsys, *invocation.split(), "--depth-cap", str(DEFAULT_DEPTH_CAP))
        assert (status, out) == (0, README_DOCUMENTS[invocation])

    def test_u_inv_huge_y_refused_quickly(self, capsys):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "u-inv", "--y", "1e300")
        elapsed = time.perf_counter() - start
        assert (status, out) == (2, "")
        assert err.startswith("nestrad: error: ") and "Traceback" not in err
        assert elapsed < 0.5

    def test_u_depth_cap_exit_3(self, capsys):
        status, out, _ = run_cli(capsys, "u", "--r", "1", "--tol", "1e-9", "--depth-cap", "6")
        assert status == 3
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["lo"] <= PHI <= doc["hi"]


class TestCapsCommand:
    def test_basic(self, capsys):
        status, out, _ = run_cli(capsys, "caps", "--mh", "1", "--eps", "0.1")
        assert status == 0
        doc = json.loads(out)
        assert doc["lo"] == 1.0
        assert doc["hi"] == pytest.approx(1.2711378787082726, rel=1e-9)

    def test_rejects_zero(self, capsys):
        status, _, err = run_cli(capsys, "caps", "--mh", "0", "--eps", "0.1")
        assert status == 2

    def test_overflowing_bound_exit_2(self, capsys):
        status, out, err = run_cli(capsys, "caps", "--mh", "1e308", "--eps", "1e308")
        assert (status, out) == (2, "")
        assert "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("caps", "--mh", "1", "--eps", "0.1", "--tol", "1e-3"),
        ("caps", "--mh", "1", "--eps", "0.1", "--depth-cap", "3"),
        ("table", "--family", "golden", "--depths", "1:3:1", "--tol", "1e-3"),
        ("table", "--family", "golden", "--depths", "1:3:1", "--depth-cap", "3"),
    ],
    ids=["caps-tol", "caps-depth-cap", "table-tol", "table-depth-cap"],
)
def test_flags_caps_and_table_do_not_read_are_refused(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert "unrecognized arguments" in err


class TestCfCommand:
    def test_loose_tolerance(self, capsys):
        status, out, _ = run_cli(capsys, "cf", "--fn", "arctan", "--terms", "1,1,1", "--tol", "2")
        assert status == 0
        doc = json.loads(out)
        assert doc["depth"] == 1
        assert doc["converged"] is True

    def test_unconverged_exit_3(self, capsys):
        # three terms leave a gap of about 0.0155 between the folds from 0 and pi/2
        status, out, _ = run_cli(
            capsys, "cf", "--fn", "arctan", "--terms", "1,1,1", "--tol", "0.01"
        )
        assert status == 3
        doc = json.loads(out)
        assert (doc["converged"], doc["depth"]) == (False, 3)
        assert 0.01 < doc["width"] < 0.02

    def test_bad_terms(self, capsys):
        status, _, err = run_cli(capsys, "cf", "--fn", "arctan", "--terms", "1,x")
        assert status == 2

    def test_300_ones_converge_below_the_fp_floor(self, capsys):
        # the widths dip under tol at depth 19, before the pads grow; the
        # search's guess from depths 4 and 8 finds it, where a doubling to 32
        # would stop at the floor, unconverged
        terms = ",".join(["1"] * 300)
        status, out, _ = run_cli(capsys, "cf", "--fn", "arctan", "--terms", terms, "--tol", "2e-13")
        assert status == 0
        doc = json.loads(out)
        assert (doc["converged"], doc["depth"]) == (True, 19)


class TestTableCommand:
    def test_ramanujan_depths(self, capsys):
        status, out, _ = run_cli(capsys, "table", "--family", "ramanujan", "--depths", "4:32:4")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "depth,lo,hi,width,width_bound"
        assert len(lines) == 9
        widths = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        for line in lines[1:]:
            depth, lo, hi, width, bound = line.split(",")
            assert float(lo) <= 3.0 <= float(hi)
            assert float(width) <= float(bound)

    def test_json_round_trip(self, capsys):
        status, out, _ = run_cli(
            capsys, "table", "--family", "golden", "--depths", "4:8:2", "--format", "json"
        )
        assert status == 0
        rows = json.loads(out)
        assert [row["depth"] for row in rows] == [4, 6, 8]
        for row in rows:
            assert set(row) == {"depth", "lo", "hi", "width", "width_bound"}

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--family", "golden", "--depths", "5:5:1")
        from nestrad import golden, kappa_enclosure

        enclosure = kappa_enclosure(golden(), 5)
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == enclosure.lo
        assert float(row[2]) == enclosure.hi

    @pytest.mark.parametrize("family,exact", [("powertower", 2.0 * PHI), ("constant_norm:1.5", 1.5 * PHI)])
    def test_depths_past_1023(self, capsys, family, exact):
        status, out, err = run_cli(capsys, "table", "--family", family, "--depths", "1000:1100:50")
        assert (status, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [1000, 1050, 1100]
        for row in rows:
            assert float(row[1]) <= exact <= float(row[2])

    def test_bad_depths(self, capsys):
        status, _, err = run_cli(capsys, "table", "--family", "golden", "--depths", "8:4:1")
        assert status == 2

    def test_argparse_usage_error(self, capsys):
        status = cli.run(["eval"])
        assert status == 2
        assert "usage" in capsys.readouterr().err

    def test_emit_table_rejects_empty(self):
        with pytest.raises(ValueError):
            cli.emit_table([], ["a"], "csv")


# The renderer against a per-cell oracle: a bool is true/false, an int is
# written in full, any other number as format(float(v), ".17g").
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
         1e308, -1e308, 1.7976931348623157e308, 2.0**53 + 2)
FLOATS = st.floats() | st.sampled_from(EDGES)
CELLS = (
    FLOATS
    | st.integers(-(2**80), 2**80)
    | st.sampled_from((2**53 + 1, -(2**63) - 1, 0))
    | st.booleans()
    | st.fractions(max_denominator=10**6)
)
COLUMNS = st.lists(st.from_regex(r"[a-z_%]{1,8}", fullmatch=True), min_size=1, max_size=6, unique=True)


def cell_text(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    return str(cell) if isinstance(cell, int) else format(float(cell), ".17g")


def oracle_document(rows, columns, fmt, record=False) -> str | None:
    """The document, or None for JSON with a non-finite cell, which JSON cannot hold."""
    if fmt == "json" and any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
        return None
    if fmt == "csv":
        return "\n".join([",".join(columns), *(",".join(map(cell_text, row)) for row in rows)]) + "\n"
    objects = ["{" + ", ".join(f'"{k}": {cell_text(v)}' for k, v in zip(columns, row)) + "}" for row in rows]
    return (objects[0] if record else "[" + ", ".join(objects) + "]") + "\n"


def emitted(render, *args):
    """What ``render`` returns, or None where emit_table refuses a non-finite JSON cell."""
    try:
        return render(*args)
    except ValueError as exc:
        assert "JSON has no non-finite numbers" in str(exc)
        return None


@settings(max_examples=300)
@given(columns=COLUMNS, data=st.data())
def test_emit_table_matches_the_cell_oracle(columns, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(columns)), min_size=1, max_size=4))
    for fmt in ("csv", "json"):
        assert emitted(cli.emit_table, rows, columns, fmt) == oracle_document(rows, columns, fmt)
        assert emitted(cli.emit_table, rows[:1], columns, fmt, True) == oracle_document(rows[:1], columns, fmt, True)


@settings(max_examples=300)
@given(
    bounds=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted),
    width_bound=st.tuples(FLOATS, FLOATS), depth=st.integers(1, 2**70), stop=st.sampled_from(("converged", "fp_floor")),
    values=st.tuples(FLOATS, FLOATS, FLOATS), fmt=st.sampled_from(("csv", "json")),
)
def test_single_record_documents_match_the_cell_oracle(bounds, width_bound, depth, stop, values, fmt):
    enclosure = nestrad.Enclosure(*bounds, depth, *width_bound)
    result = nestrad.KappaResult(enclosure, stop)
    row = (enclosure.lo, enclosure.hi, enclosure.mid, enclosure.width, width_bound[0] + width_bound[1], depth, stop == "converged")
    columns = ("lo", "hi", "mid", "width", "width_bound", "depth", "converged")
    status = 0 if stop == "converged" else 3

    def expect(status, document):
        return None if document is None else (status, document)

    assert emitted(cli._result_document, result, fmt) == expect(status, oracle_document([row], columns, fmt, True))
    r = values[0]
    assert emitted(cli._result_document, result, fmt, (r,), ("r", *columns)) == expect(
        status, oracle_document([(r, *row)], ("r", *columns), fmt, True)
    )
    y, tol, lo = values
    with mock.patch.object(cli, "u_inverse", lambda *args: r):
        document = emitted(cli._u_inv, SimpleNamespace(y=y, tol=tol, depth_cap=8, format=fmt))
    assert document == expect(0, oracle_document([(y, r, tol)], ("y", "r", "tol"), fmt, True))
    with mock.patch.object(cli, "sup_enclosure", lambda query: (lo, r)):
        document = emitted(cli._caps, SimpleNamespace(mh=2.0, eps=0.5, format=fmt))
    assert document == expect(0, oracle_document([(2.0, 0.5, lo, r)], ("m_h", "epsilon", "lo", "hi"), fmt, True))


# The fold stays within binary64, but the depth-3 pad rounds hi up to inf
INF_SPEC = "terms_lograw=[1419.565425786768,2777.768851573536]\ntail=zero\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_non_finite_cell_is_written_only_as_csv(fmt, capsys, tmp_path: Path):
    spec = tmp_path / "inf.spec"
    spec.write_text(INF_SPEC, encoding="utf-8")
    status, out, err = run_cli(capsys, "eval", "--spec", str(spec), "--tol", "1e-3", "--format", fmt)
    if fmt == "csv":
        assert (status, err) == (3, "")
        assert out == (
            "lo,hi,mid,width,width_bound,depth,converged\n"
            "1.7976931348623059e+308,inf,inf,inf,2.3950083714416638e+294,3,false\n"
        )
    else:
        assert (status, out) == (2, "")
        assert err == "nestrad: error: cannot write a JSON document with hi = inf: JSON has no non-finite numbers\n"


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("invocation", sorted(i for i, d in README_DOCUMENTS.items() if d[0] in "{["))
def test_readme_json_documents_parse(invocation):
    json.loads(README_DOCUMENTS[invocation], parse_constant=_refuse_constant)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_table_refusals_keep_their_messages(fmt):
    with pytest.raises(ValueError) as raised:
        cli.emit_table([], ["a"], fmt)
    assert str(raised.value) == "refusing to emit an empty table"
    with pytest.raises(ValueError) as raised:
        cli.emit_table([(1.0,), (1, 2)], ["a"], fmt, True)
    assert str(raised.value) == "row (1, 2) does not match columns ['a']"


@pytest.mark.parametrize("fmt", ["jsno", "CSV", "JSON", ""])
def test_emit_table_refuses_an_unknown_format(fmt):
    # only the two formats that --format admits render; any other is no silent JSON
    with pytest.raises(ValueError) as raised:
        cli.emit_table([(1.0,)], ["a"], fmt)
    assert str(raised.value) == f"format must be 'csv' or 'json', got {fmt!r}"
