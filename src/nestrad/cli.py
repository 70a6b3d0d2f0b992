"""Command-line front end.

Subcommands: ``eval`` (radical to tolerance), ``u`` (sample the golden-body
transfinite radical, pointwise or on a grid), ``u-inv`` (invert it),
``caps`` (tail-supremum interval from a modulus), ``cf`` (continued
function), ``table`` (per-depth convergence table).

Every subcommand accepts ``--format`` and ``--out``; ``--format`` defaults
to ``csv`` for ``table`` and to ``json`` elsewhere.  ``eval``, ``u``,
``u-inv`` and ``cf`` also accept ``--tol`` (default 1e-9, for ``u-inv``
1e-6) and ``--depth-cap`` (default 256); ``caps`` and ``table`` refuse both.

Each subcommand's flags are declared once, in ``_COMMANDS``, with their
``add_argument`` keywords; a plan per subcommand is built from it at import.
:func:`run` reads argv of the form ``<subcommand> (--flag value)*`` by the
plan in one pass when every flag is spelled in full and given once, no value
starts with ``-``, every value converts, every required flag is given and
exactly one flag of each exclusive pair.  Any other argv (help,
abbreviations, ``--flag=value``, negative values, refusals) goes to the
argparse tree built from the same declaration on first use, which returns
the same namespace for the argv the one-pass reader takes; so argparse alone
prints help and usage errors.  Only that argv imports argparse (and with it
gettext) and shutil, and only a ``cap:`` tail imports csv, so a well-formed
request loads neither.  The namespace carries the subcommand's handler: a
function from it to ``(exit status, document)``.

One renderer, :func:`emit_table`, writes every document, a table or one
record, with 17 significant digits per float and a ``.`` decimal separator
whatever the locale, so identical invocations give byte-identical documents.
A document that cannot be written, to ``--out`` or to a standard output
whose reader has gone or that was closed before the process started, or
as JSON because a cell is not finite, is reported on one line with exit 2;
help for such a standard output is dropped, with exit 0.

Exit codes: 0 success, 2 validation error, 3 search stopped without reaching
tolerance (depth cap, cap table end or floating-point floor; the result
document is still emitted, with ``converged: false``).
"""

from __future__ import annotations

import errno
import functools
import math
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .caps import SupQuery, sup_enclosure
from .contfn import ContinuedSpec, cf_limit
from .kappa import DEFAULT_DEPTH_CAP, KappaResult, kappa_enclosure, kappa_limit
from .nested import ARCTAN
from .seqspec import SpecError, _path, make_family, parse_spec
from .ufunc import u_inverse, u_spec, u_table

__all__ = ["run", "main", "emit_table"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCONVERGED = 3


_NON_FINITE = frozenset(("inf", "-inf", "nan"))  # how %.17g writes the floats that JSON cannot hold


@functools.lru_cache
def _json_object(columns: tuple[str, ...]) -> str:
    """The template of one JSON row: its keys, each "%" escaped, and a %s per cell."""
    return "{\"" + '": %s, "'.join([column.replace("%", "%%") for column in columns]) + '": %s}'


def emit_table(
    rows: Sequence[Sequence[object]], columns: Sequence[str], fmt: str, record: bool = False
) -> str:
    """Render rows as CSV (header + lines) or JSON (a list of objects; with
    ``record``, a one-row table's object alone).

    A float cell is written with 17 significant digits, a bool as
    ``true``/``false``, an int in full and any other number as its float.
    Raises ValueError for no rows, a row that does not match the columns,
    a ``fmt`` other than ``"csv"`` and ``"json"``, or a JSON document with
    a non-finite cell, which JSON cannot write (RFC 8259); CSV writes it
    as ``inf``, ``-inf`` or ``nan``.
    """
    if not rows:
        raise ValueError("refusing to emit an empty table")
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match columns {columns!r}")
    if fmt == "csv":
        render, separator, head, tail = ",".join, "\n", ",".join(columns) + "\n", "\n"
    elif fmt == "json":
        render, separator = _json_object(tuple(columns)).__mod__, ", "
        head, tail = ("", "\n") if record else ("[", "]\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    texts = [tuple([
        "%.17g" % cell if cell.__class__ is float
        else ("true" if cell else "false") if cell.__class__ is bool
        else str(cell) if isinstance(cell, int) else format(float(cell), ".17g")
        for cell in row
    ]) for row in rows]
    if fmt == "json" and not all(map(_NON_FINITE.isdisjoint, texts)):
        column, text = next((c, t) for row in texts for c, t in zip(columns, row) if t in _NON_FINITE)
        raise ValueError(f"cannot write a JSON document with {column} = {text}: JSON has no non-finite numbers")
    return head + separator.join(map(render, texts)) + tail


_RESULT = ("lo", "hi", "mid", "width", "width_bound", "depth", "converged")


def _result_document(
    result: KappaResult, fmt: str, lead: tuple = (), columns: tuple = _RESULT
) -> tuple[int, str]:
    """Exit status and document of a limit result, after the ``lead`` cells."""
    e = result.enclosure
    row = (*lead, e.lo, e.hi, e.mid, e.width, e.analytic_width_bound + e.fp_slack, e.depth, result.converged)
    return (EXIT_OK if result.converged else EXIT_UNCONVERGED), emit_table([row], columns, fmt, True)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _colon_triple(text: str, option: str, shape: str, types: tuple[type, type, type]) -> tuple:
    parts = text.split(":")
    if len(parts) == 3:
        try:
            return tuple(kind(part) for kind, part in zip(types, parts))
        except ValueError:
            raise SpecError(f"bad {option} value {text!r}") from None
    raise SpecError(f"{option} expects {shape}, got {text!r}")


def _eval(args: SimpleNamespace) -> tuple[int, str]:
    if args.family is not None:
        spec = make_family(args.family)
    else:
        path = _path(args.spec)
        try:
            with open(path, encoding="utf-8") as stream:
                text = stream.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {args.spec!r}: {exc}") from None
        spec = parse_spec(text, cap_base=os.path.dirname(path))
    return _result_document(kappa_limit(spec, args.tol, args.depth_cap), args.format)


def _u(args: SimpleNamespace) -> tuple[int, str]:
    if args.grid is not None:
        r_min, r_max, count = _colon_triple(args.grid, "--grid", "rmin:rmax:count", (float, float, int))
        rows = u_table(r_min, r_max, count, args.tol, args.depth_cap)
        return EXIT_OK, emit_table(rows, ("r", "u_lo", "u_hi"), args.format)
    r = args.r
    if not (r >= 0.0 and math.isfinite(r)):
        raise SpecError(f"--r must be finite and >= 0, got {r}")
    result = kappa_limit(u_spec(r), args.tol, args.depth_cap)
    return _result_document(result, args.format, (r,), ("r", *_RESULT))


def _u_inv(args: SimpleNamespace) -> tuple[int, str]:
    r = u_inverse(args.y, args.tol, args.depth_cap)
    return EXIT_OK, emit_table([(args.y, r, args.tol)], ("y", "r", "tol"), args.format, True)


def _caps(args: SimpleNamespace) -> tuple[int, str]:
    query = SupQuery(args.mh, args.eps)
    row = (query.m_h, query.epsilon, *sup_enclosure(query))
    return EXIT_OK, emit_table([row], ("m_h", "epsilon", "lo", "hi"), args.format, True)


def _cf(args: SimpleNamespace) -> tuple[int, str]:
    if not args.terms.replace(",", "").strip():
        raise SpecError("--terms must list at least one term")
    try:
        terms = list(map(float, args.terms.split(",")))
    except ValueError:
        raise SpecError(f"bad --terms value {args.terms!r}") from None
    result = cf_limit(ContinuedSpec(ARCTAN, terms), args.tol, args.depth_cap)
    return _result_document(result, args.format)


def _table(args: SimpleNamespace) -> tuple[int, str]:
    spec = make_family(args.family)
    lo, hi, step = _colon_triple(args.depths, "--depths", "lo:hi:step", (int, int, int))
    if lo < 1 or hi < lo or step < 1:
        raise SpecError(f"--depths needs 1 <= lo <= hi and step >= 1, got {args.depths!r}")
    enclosures = (kappa_enclosure(spec, depth) for depth in range(lo, hi + 1, step))
    rows = [(e.depth, e.lo, e.hi, e.width, e.analytic_width_bound + e.fp_slack) for e in enclosures]
    return EXIT_OK, emit_table(rows, ("depth", "lo", "hi", "width", "width_bound"), args.format)


def _limits(tol: float) -> dict:
    return {"--tol": {"type": _positive_float, "default": tol},
            "--depth-cap": {"type": _positive_int, "default": DEFAULT_DEPTH_CAP}}


def _output(default_format: str = "json") -> dict:
    return {"--format": {"choices": ("csv", "json"), "default": default_format}, "--out": {}}


# Each subcommand once: its handler, help, the pair of flags of which exactly
# one is required (or none), and each flag with its add_argument keywords.
_COMMANDS = {
    "eval": (_eval, "evaluate a radical to tolerance", ("--family", "--spec"), {
        "--family": {"help": "golden|powertower|ramanujan|constant_raw:<c>|constant_norm:<a>"},
        "--spec": {"help": "path to a spec document"},
        **_limits(1e-9), **_output(),
    }),
    "u": (_u, "sample the transfinite golden-body radical", ("--r", "--grid"), {
        "--r": {"type": float},
        "--grid": {"help": "rmin:rmax:count, emits rows r,u_lo,u_hi"},
        **_limits(1e-9), **_output(),
    }),
    "u-inv": (_u_inv, "invert the transfinite radical", (), {
        "--y": {"type": float, "required": True},
        **_limits(1e-6), **_output(),
    }),
    "caps": (_caps, "tail-supremum interval from a modulus", (), {
        "--mh": {"type": _positive_float, "required": True},
        "--eps": {"type": _positive_float, "required": True},
        **_output(),
    }),
    "cf": (_cf, "continued-function evaluation", (), {
        "--fn": {"choices": ("arctan",), "required": True},
        "--terms": {"required": True, "help": "comma-separated non-negative terms"},
        **_limits(1e-9), **_output(),
    }),
    "table": (_table, "per-depth convergence table", (), {
        "--family": {"required": True},
        "--depths": {"required": True, "help": "lo:hi:step"},
        **_output("csv"),
    }),
}


@functools.cache
def _build_parser():
    """The argparse tree of ``_COMMANDS``, which imports argparse on first use."""
    import argparse
    import shutil

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, formatting its usage text once per terminal width.

        argparse sizes the text to ``shutil.get_terminal_size().columns``, read
        at each call, so a caller that changes ``COLUMNS`` still gets its text.
        Subparsers take this class too.
        """

        _usage = None

        def format_usage(self) -> str:
            if getattr(self, "color", False):  # Python 3.14 may colour it by the stream
                return super().format_usage()
            columns = shutil.get_terminal_size().columns
            if self._usage is None or self._usage[0] != columns:
                self._usage = (columns, super().format_usage())
            return self._usage[1]

        def print_help(self, file=None) -> None:
            if file is not None or sys.stdout is not None:  # None where fd 1 was closed
                super().print_help(file)

    parser = _Parser(
        prog="nestrad",
        description="Certified evaluation of nested and transfinite square-root radicals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, exclusive, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        group = p.add_mutually_exclusive_group(required=True) if exclusive else p
        for name, keywords in flags.items():
            (group if name in exclusive else p).add_argument(name, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _plan(command: str, handler, _help: str, exclusive: tuple, flags: dict) -> tuple:
    """A subcommand's reading plan: each flag's attribute and converter (from its type or its
    choices, never both), the namespace's defaults, the required attributes and the pair's."""
    readers, defaults, required = {}, {"command": command, "handler": handler}, set()
    for name, keywords in flags.items():
        attr, choices = name[2:].replace("-", "_"), keywords.get("choices")
        convert = keywords.get("type", str) if choices is None else dict(zip(choices, choices)).__getitem__
        readers[name], defaults[attr] = (attr, convert), keywords.get("default")
        if keywords.get("required"):
            required.add(attr)
    return readers, defaults, required, {readers[name][0] for name in exclusive}


_PLANS = {command: _plan(command, *entry) for command, entry in _COMMANDS.items()}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for argv of the form the module docstring
    describes, read by the subcommand's plan in one pass; None for other argv."""
    plan = _PLANS.get(argv[0]) if argv else None
    if plan is None or len(argv) % 2 == 0:
        return None
    readers, defaults, required, exclusive = plan
    given = {}
    for at in range(1, len(argv), 2):
        reader, text = readers.get(argv[at]), argv[at + 1]
        if reader is None or text.startswith("-"):
            return None
        try:
            given[reader[0]] = reader[1](text)
        except Exception:  # ValueError, KeyError off the choices, ArgumentTypeError: argparse reports it
            return None
    if (2 * len(given) + 1 < len(argv) or not given.keys() >= required
            or exclusive and len(given.keys() & exclusive) != 1):
        return None  # a flag given twice, a required flag missing, or not exactly one of the pair
    return SimpleNamespace(**{**defaults, **given})


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the command, emit the document; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:  # argparse prints its own usage message
            return int(exc.code or 0)
    try:
        status, document = args.handler(args)
    except (ValueError, RuntimeError) as exc:
        print(f"nestrad: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.out is None:
            if sys.stdout is None:  # fd 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(document)
            sys.stdout.flush()
        else:
            with open(_path(args.out), "w", encoding="utf-8") as stream:
                stream.write(document)
    except OSError as exc:
        target = "standard output" if args.out is None else repr(args.out)
        print(f"nestrad: error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


def main() -> None:
    status = run()
    try:
        if sys.stdout is not None:  # None where fd 1 was closed: nothing to flush
            sys.stdout.flush()  # what argparse printed; run flushes each document
    except OSError:  # the reader has gone: as the signal module's note on SIGPIPE
        # does, point fd 1 at devnull, so that the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)
