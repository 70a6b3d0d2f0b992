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
``add_argument`` keywords.  :func:`run` reads argv of the form
``<subcommand> (--flag value)*`` from it in one pass when every flag is
spelled in full and given once, no value starts with ``-``, every value
converts, every required flag is given and exactly one flag of each
exclusive pair.  Any other argv (help, abbreviations, ``--flag=value``,
negative values, refusals) goes to the argparse tree built from the same
declaration on first use, which returns the same namespace for the argv the
one-pass reader takes; so argparse alone prints help and usage errors.  Only
that argv imports argparse (and with it gettext) and shutil, and only a
``cap:`` tail imports csv, so a well-formed request loads neither.  The
namespace carries the subcommand's handler: a function from it to ``(exit
status, document)``.

A document that cannot be written, to ``--out`` or to a standard output
whose reader has gone, is reported on one line with exit 2.

Exit codes: 0 success, 2 validation error, 3 search stopped without reaching
tolerance (depth cap, cap table end or floating-point floor; the result
document is still emitted, with ``converged: false``).
Numbers are rendered with 17 significant digits and a ``.`` decimal
separator regardless of locale, so identical invocations produce
byte-identical documents.
"""

from __future__ import annotations

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


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _json_object(columns: Sequence[str], row: Sequence[object]) -> str:
    return "{" + ", ".join(f'"{c}": {_fmt(cell)}' for c, cell in zip(columns, row)) + "}"


def emit_table(
    rows: Sequence[Sequence[object]], columns: Sequence[str], fmt: str
) -> str:
    """Render rows as CSV (header + lines) or JSON (list of objects)."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match columns {columns!r}")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    return "[" + ", ".join(_json_object(columns, row) for row in rows) + "]\n"


def _emit_object(pairs: Sequence[tuple[str, object]], fmt: str) -> str:
    """One record: CSV header + row, or a single JSON object."""
    columns, row = zip(*pairs)
    return emit_table([row], columns, fmt) if fmt == "csv" else _json_object(columns, row) + "\n"


def _result_document(
    result: KappaResult, fmt: str, lead: Sequence[tuple[str, object]] = ()
) -> tuple[int, str]:
    """Exit status and document of a limit result, after the ``lead`` fields."""
    enclosure = result.enclosure
    pairs = [
        *lead,
        ("lo", enclosure.lo),
        ("hi", enclosure.hi),
        ("mid", enclosure.mid),
        ("width", enclosure.width),
        ("width_bound", enclosure.analytic_width_bound + enclosure.fp_slack),
        ("depth", enclosure.depth),
        ("converged", result.converged),
    ]
    return (EXIT_OK if result.converged else EXIT_UNCONVERGED), _emit_object(pairs, fmt)


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
        return EXIT_OK, emit_table(rows, ["r", "u_lo", "u_hi"], args.format)
    r = args.r
    if not (r >= 0.0 and math.isfinite(r)):
        raise SpecError(f"--r must be finite and >= 0, got {r}")
    result = kappa_limit(u_spec(r), args.tol, args.depth_cap)
    return _result_document(result, args.format, [("r", r)])


def _u_inv(args: SimpleNamespace) -> tuple[int, str]:
    r = u_inverse(args.y, args.tol, args.depth_cap)
    return EXIT_OK, _emit_object([("y", args.y), ("r", r), ("tol", args.tol)], args.format)


def _caps(args: SimpleNamespace) -> tuple[int, str]:
    query = SupQuery(args.mh, args.eps)
    lo, hi = sup_enclosure(query)
    pairs = [("m_h", query.m_h), ("epsilon", query.epsilon), ("lo", lo), ("hi", hi)]
    return EXIT_OK, _emit_object(pairs, args.format)


def _cf(args: SimpleNamespace) -> tuple[int, str]:
    if not args.terms.replace(",", "").strip():
        raise SpecError("--terms must list at least one term")
    try:
        terms = [float(cell) for cell in args.terms.split(",")]
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
    return EXIT_OK, emit_table(rows, ["depth", "lo", "hi", "width", "width_bound"], args.format)


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


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for argv of the form the module
    docstring describes, read from ``_COMMANDS`` in one pass; None for any
    other argv."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    handler, _, exclusive, flags = entry
    given = {}
    for at in range(1, len(argv), 2):
        name, text = argv[at], argv[at + 1]
        keywords = flags.get(name)
        if keywords is None or name in given or text.startswith("-"):
            return None
        convert, choices = keywords.get("type"), keywords.get("choices")
        try:
            value = text if convert is None else convert(text)
        except Exception:  # ValueError, or a converter's ArgumentTypeError: argparse reports it
            return None
        if choices is not None and value not in choices:
            return None
        given[name] = value
    if exclusive and (exclusive[0] in given) == (exclusive[1] in given):
        return None
    args = SimpleNamespace(command=argv[0], handler=handler)
    for name, keywords in flags.items():
        if name in given:
            value = given[name]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(args, name[2:].replace("-", "_"), value)
    return args


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
        sys.stdout.flush()  # what argparse printed; run flushes each document
    except OSError:  # the reader has gone: as the signal module's note on SIGPIPE
        # does, point fd 1 at devnull, so that the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)
