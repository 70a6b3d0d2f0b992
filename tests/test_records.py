"""The public value types are immutable records, and importing them is cheap."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import nestrad
from nestrad import (
    ARCTAN,
    CapTableTail,
    ConstantNormalizedTail,
    ConstantRawTail,
    ContinuedSpec,
    Enclosure,
    KappaResult,
    OmegaTail,
    OuterFunction,
    RamanujanTail,
    SequenceSpec,
    SupQuery,
    ZeroTail,
    cli,
    constant_normalized,
    explicit,
    golden,
    parse_spec,
    u_spec,
)
from nestrad._record import Record

SOURCE = Path(nestrad.__file__).resolve().parent.parent

_ENCLOSURE = Enclosure(1.0, 2.0, 3, 0.5, 0.25)

# one instance of every public record, with a field to try assigning (any
# name for the tails that have no fields)
RECORDS = {
    "Enclosure": (_ENCLOSURE, "lo"),
    "OuterFunction": (ARCTAN, "ceiling"),
    "KappaResult": (KappaResult(_ENCLOSURE, "converged"), "stop_reason"),
    "SequenceSpec": (explicit([1.5, 0.0, 7.25], tail=OmegaTail(2.0)), "tail"),
    "ZeroTail": (ZeroTail(), "extra"),
    "ConstantNormalizedTail": (ConstantNormalizedTail(2.0), "alpha"),
    "ConstantRawTail": (ConstantRawTail(6.0), "raw"),
    "CapTableTail": (CapTableTail(((1, 0.5, 2.0), (3, 0.25, 1.5))), "rows"),
    "OmegaTail": (OmegaTail(2.0), "omega_value"),
    "RamanujanTail": (RamanujanTail(), "extra"),
    "SupQuery": (SupQuery(1.0, 0.1), "epsilon"),
    "ContinuedSpec": (ContinuedSpec(ARCTAN, [1.0, 2.0]), "terms"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordSemantics:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record, field = RECORDS[name]
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == before

    def test_copies_and_pickles_are_equal(self, name):
        record, _ = RECORDS[name]
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert hash(pickle.loads(pickle.dumps(record))) == hash(record)


class _Derived(Record):
    """One field and one private slot derived from it, different in every instance."""

    __slots__ = ("value", "_token")

    def __init__(self, value):
        self._set_value(self, value)
        self._set__token(self, object())


def test_private_slots_stay_out_of_equality_hash_repr_and_pickle():
    first, second = _Derived(2.0), _Derived(2.0)
    assert first._token is not second._token
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "_Derived(value=2.0)"
    clone = pickle.loads(pickle.dumps(first))
    assert clone == first and clone._token is not first._token
    with pytest.raises(AttributeError):
        first._token = None
    table = CapTableTail(((1, 0.5, 2.0), (3, 0.25, 1.5)))
    assert CapTableTail._fields == ("rows",)
    assert table.__reduce__() == (CapTableTail, (table.rows,))
    assert pickle.loads(pickle.dumps(table))._table == table._table


def test_spec_bound_table_stays_out_of_equality_hash_repr_and_pickle():
    # a spec with a prefix holds its suffix maxima and its tail's bounds in a private slot
    for spec in (explicit([1.5, 0.0, 7.25], tail=OmegaTail(2.0)), golden()):
        rebuilt = SequenceSpec(spec.prefix, spec.tail)
        clone = pickle.loads(pickle.dumps(spec))
        for other in (rebuilt, clone):
            assert other == spec and hash(other) == hash(spec) and repr(other) == repr(spec)
            assert [other.tail_bounds(n) for n in range(1, 6)] == [spec.tail_bounds(n) for n in range(1, 6)]
    assert SequenceSpec._fields == ("prefix", "tail")
    assert repr(u_spec(2.0)) == "SequenceSpec(prefix=(), tail=OmegaTail(omega_value=2.0))"


def test_equality_is_type_aware():
    assert ConstantNormalizedTail(2.0) != OmegaTail(2.0)
    assert ZeroTail() != RamanujanTail()
    assert ZeroTail() == ZeroTail()
    assert ConstantRawTail(6.0) == ConstantRawTail(6.0) != ConstantRawTail(7.0)
    assert not isinstance(OmegaTail(2.0), tuple)
    assert SequenceSpec((), ZeroTail()) != SequenceSpec((), RamanujanTail())
    assert SequenceSpec((), ZeroTail()) != ((), ZeroTail(), None)


def test_equal_records_hash_equal():
    pairs = [
        (golden(), golden()),
        (golden(), constant_normalized(1.0)),
        (parse_spec("family=constant_norm:1"), golden()),
        (u_spec(2.0), u_spec(2.0)),
        (explicit([1.5, 0.0, 7.25], tail=OmegaTail(2.0)), explicit([1.5, 0.0, 7.25], tail=OmegaTail(2.0))),
        (CapTableTail(((1, 0.5, 2.0),)), CapTableTail(((1, 0.5, 2.0),))),
        (Enclosure(1.0, 2.0, 3, 0.5), Enclosure(1.0, 2.0, 3, 0.5)),
    ]
    for left, right in pairs:
        assert left is not right
        assert left == right
        assert hash(left) == hash(right)
    assert len({golden(), golden(), u_spec(2.0)}) == 2


def test_defaults_and_repr():
    enclosure = Enclosure(1.0, 2.0, 3, 0.5)
    assert enclosure.fp_slack == 0.0
    assert enclosure == Enclosure(1.0, 2.0, 3, 0.5, 0.0)
    assert repr(OmegaTail(2.0)) == "OmegaTail(omega_value=2.0)"
    assert repr(ZeroTail()) == "ZeroTail()"
    assert repr(CapTableTail(((1, 0.5, 2.0),))) == "CapTableTail(rows=((1, 0.5, 2.0),))"
    assert repr(enclosure) == (
        "Enclosure(lo=1.0, hi=2.0, depth=3, analytic_width_bound=0.5, fp_slack=0.0)"
    )


def test_keyword_construction_and_validation():
    assert Enclosure(lo=1.0, hi=2.0, depth=3, analytic_width_bound=0.5, fp_slack=0.1).fp_slack == 0.1
    assert OuterFunction(eval=math.atan, ceiling=math.pi / 2, label="arctan") == ARCTAN
    with pytest.raises(ValueError, match="lo <= hi"):
        Enclosure(2.0, 1.0, 3, 0.5)
    with pytest.raises(ValueError, match="omega value"):
        OmegaTail(-1.0)


# Modules that the CLI imports only on the path that uses them: argparse (and
# gettext) and shutil for help, usage errors and argv that the one-pass reader
# declines, csv for cap tables.  pathlib is used nowhere.
LAZY = ("argparse", "gettext", "shutil", "csv", "pathlib")


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks out, so only what nestrad imports is loaded
    code = (
        "import sys, nestrad, nestrad.cli\n"
        "print(nestrad.__file__)\n"
        f"print(sorted({{'dataclasses', 'inspect', 'typing', *{LAZY!r}}} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    location, loaded = done.stdout.splitlines()
    assert Path(location).resolve().parent.parent == SOURCE
    assert loaded == "[]"


# One -S interpreter runs each argv through cli.run, in order, and reports its
# (status, stdout, stderr) and the LAZY modules loaded after it.
_REQUESTS = """\
import contextlib, io, json, sys
import nestrad.cli
report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = nestrad.cli.run(argv)
    report.append([status, out.getvalue(), err.getvalue(), sorted(set(sys.argv[2:]) & set(sys.modules))])
print(json.dumps(report))
"""


def test_requests_load_argparse_and_csv_only_where_used(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one usage width in both processes
    (tmp_path / "plain.spec").write_text("terms_raw=[2,2,2]\ntail=constant_raw:2\n", encoding="utf-8")
    (tmp_path / "capped.spec").write_text("terms_norm=[1,1,1]\ntail=cap:caps.csv\n", encoding="utf-8")
    (tmp_path / "caps.csv").write_text("n,lower_seed,upper_cap\n4,0.5,1.5\n", encoding="utf-8")
    plain, out = str(tmp_path / "plain.spec"), str(tmp_path / "plain.json")
    well_formed = [
        ["eval", "--family", "golden", "--tol", "1e-10"],
        ["eval", "--spec", plain, "--tol", "1e-9"],
        ["eval", "--spec", plain, "--tol", "1e-9", "--out", out],
        ["u", "--r", "2", "--format", "csv"],
        ["u", "--grid", "1:2:3"],
        ["u-inv", "--y", "2"],
        ["caps", "--mh", "2", "--eps", "0.5"],
        ["cf", "--fn", "arctan", "--terms", "1,1,1", "--tol", "2"],
        ["table", "--family", "golden", "--depths", "1:3:1"],
    ]
    lazy_paths = [
        ["eval", "--spec", str(tmp_path / "capped.spec")],
        ["eval", "-h"],
        ["caps", "--mh", "0", "--eps", "0.5"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _REQUESTS, json.dumps(well_formed + lazy_paths), *LAZY],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(done.stdout)
    for argv, (status, stdout, stderr, loaded) in zip(well_formed + lazy_paths, report):
        # the same output as in this process, where argparse and csv are loaded
        assert [status, stdout, stderr] == [cli.run(argv), *capsys.readouterr()], argv
    assert [loaded for *_, loaded in report[: len(well_formed)]] == [[]] * len(well_formed)
    assert report[2][1] == "" and (tmp_path / "plain.json").read_text(encoding="utf-8") == report[1][1]
    cap, helped, refused = report[len(well_formed):]
    assert cap[0] == 3 and cap[3] == ["csv"]
    assert helped[0] == 0 and helped[1].startswith("usage: nestrad eval") and "argparse" in helped[3]
    assert refused[0] == 2 and refused[2].endswith("argument --mh: expected a positive number, got '0'\n")


def _annotated_callables():
    for name in nestrad.__all__:
        value = getattr(nestrad, name)
        if isinstance(value, type) and "__init__" in vars(value):
            yield pytest.param(value.__init__, id=f"{name}.__init__")
        if callable(value):
            yield pytest.param(value, id=name)
    yield pytest.param(cli.run, id="cli.run")
    yield pytest.param(cli.emit_table, id="cli.emit_table")


@pytest.mark.parametrize("value", _annotated_callables())
def test_type_hints_resolve(value):
    # every annotation names something its module binds
    typing.get_type_hints(value)
