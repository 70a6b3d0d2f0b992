"""Robustness matrix: every subcommand with every flag at extreme and invalid values.

Each argv runs in process through ``cli.run``.  The matrix pins no exit code
of its own, only the exit-code contract that holds for every input:

* the exit code is 0, 2 or 3, and nothing escapes ``cli.run``;
* stderr carries no traceback;
* the document (stdout, or the ``--out`` file) is empty exactly when the
  exit code is 2, and stderr then starts with ``nestrad: error:`` or
  ``usage:``;
* a document's ``converged`` flag is true exactly when the exit code is 0.
"""

from pathlib import Path

import pytest

from nestrad import cli

VALUES = ("0", "-1", "5e-324", "1e-300", "1e299", "1.7976931348623157e308", "inf", "nan", "text", "")

# A valid argv per subcommand, and how each of its flags takes a value v.
BASELINES = {
    "eval": ["eval", "--family", "golden"],
    "u": ["u", "--r", "2"],
    "u-inv": ["u-inv", "--y", "3"],
    "caps": ["caps", "--mh", "2", "--eps", "0.5"],
    "cf": ["cf", "--fn", "arctan", "--terms", "1,2"],
    "table": ["table", "--family", "golden", "--depths", "1:3:1"],
}
FAMILY = ("{}", "constant_raw:{}", "constant_norm:{}")
SPEC = (
    "terms_raw=[{}]",
    "terms_lograw=[{}]",
    "terms_norm=[{}]",
    "terms_raw=[2]\ntail=constant_raw:{}",
    "terms_raw=[2]\ntail=constant_norm:{}",
    "terms_raw=[2]\ntail=omega:{}",
)
LIMITS = {"--tol": ("{}",), "--depth-cap": ("{}",)}
OUTPUT = {"--format": ("{}",), "--out": ("{}",)}
FLAGS = {
    "eval": {"--family": FAMILY, "--spec": ("{}", *SPEC), **LIMITS, **OUTPUT},
    "u": {"--r": ("{}",), "--grid": ("{}:2:2", "1:{}:2", "1:2:{}"), **LIMITS, **OUTPUT},
    "u-inv": {"--y": ("{}",), **LIMITS, **OUTPUT},
    "caps": {"--mh": ("{}",), "--eps": ("{}",), **OUTPUT},
    "cf": {"--fn": ("{}",), "--terms": ("{}", "1,{}"), **LIMITS, **OUTPUT},
    "table": {"--family": FAMILY, "--depths": ("{}:3:1", "1:{}:1", "1:3:{}"), **OUTPUT},
}
SPEC_FILE = "matrix.spec"


def with_flag(argv, flag, value):
    """argv with ``flag`` set to ``value``, replacing any value it had."""
    if flag in argv:
        at = argv.index(flag) + 1
        return [*argv[:at], value, *argv[at + 1:]]
    mutually_exclusive = {"--spec": "--family", "--grid": "--r"}
    if flag in mutually_exclusive:
        at = argv.index(mutually_exclusive[flag])
        return [*argv[:at], flag, value, *argv[at + 2:]]
    return [*argv, flag, value]


def flag_cases():
    """(argv, spec text or None) for every flag of every subcommand and every value."""
    for command, flags in FLAGS.items():
        for flag, shapes in flags.items():
            cases = []
            for shape in shapes:
                for value in VALUES:
                    if flag == "--spec" and shape != "{}":
                        cases.append((with_flag(BASELINES[command], flag, SPEC_FILE), shape.format(value)))
                    else:
                        cases.append((with_flag(BASELINES[command], flag, shape.format(value)), None))
            yield pytest.param(cases, id=f"{command} {flag}")


def check(argv, capsys):
    status = cli.run(argv)
    out, err = capsys.readouterr()
    assert status in (0, 2, 3), (argv, status)
    assert "Traceback" not in err, argv
    document = out
    if "--out" in argv:
        assert out == "", argv
        target = Path(argv[argv.index("--out") + 1])
        document = ""
        if target.is_file():
            document = target.read_text(encoding="utf-8")
            target.unlink()
    if status == 2:
        assert document == "", argv
        assert err.startswith(("nestrad: error:", "usage:")), (argv, err)
        return
    assert document != "", argv
    if "converged" in document:  # the only boolean field
        assert ("true" in document) == (status == 0), (argv, status, document)


@pytest.mark.parametrize("cases", flag_cases())
def test_flag_values_keep_the_exit_code_contract(cases, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # --out targets and the spec file land here
    for argv, spec_text in cases:
        if spec_text is not None:
            (tmp_path / SPEC_FILE).write_text(spec_text + "\n", encoding="utf-8")
        check(argv, capsys)
