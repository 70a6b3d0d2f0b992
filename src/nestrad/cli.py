"""Command-line front end.

Subcommands: ``eval`` (radical to tolerance), ``u`` (sample the golden-body
transfinite radical, pointwise or on a grid), ``u-inv`` (invert it),
``caps`` (tail-supremum interval from a modulus), ``cf`` (continued
function), ``table`` (per-depth convergence table).

Exit codes: 0 success, 2 validation error, 3 depth cap hit without reaching
tolerance (the result document is still emitted, with ``converged: false``).
Numbers are rendered with 17 significant digits and a ``.`` decimal
separator regardless of locale, so identical invocations produce
byte-identical documents.  ``KAPPA_DEPTH_CAP`` overrides the default depth
cap of 256.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .caps import SupQuery, sup_enclosure
from .contfn import ContinuedSpec, cf_limit
from .kappa import DEFAULT_DEPTH_CAP, KappaResult, kappa_enclosure, kappa_limit
from .nested import ARCTAN
from .seqspec import SequenceSpec, SpecError, make_family, parse_spec
from .ufunc import u_inverse, u_spec, u_table

__all__ = ["CliConfig", "run", "main", "emit_table"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCONVERGED = 3


@dataclass(frozen=True)
class CliConfig:
    command: str
    spec_source: str | None = None
    tol: float = 1e-9
    depth_cap: int = DEFAULT_DEPTH_CAP
    output_format: str = "json"
    output_path: str | None = None
    extra: tuple[tuple[str, object], ...] = ()

    def arg(self, name: str) -> object:
        return dict(self.extra)[name]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _emit_json_object(pairs: Sequence[tuple[str, object]]) -> str:
    body = ", ".join(f'"{key}": {_fmt(value)}' for key, value in pairs)
    return "{" + body + "}\n"


def _emit_csv_object(pairs: Sequence[tuple[str, object]]) -> str:
    header = ",".join(key for key, _ in pairs)
    row = ",".join(_fmt(value) for _, value in pairs)
    return header + "\n" + row + "\n"


def _emit_object(pairs: Sequence[tuple[str, object]], fmt: str) -> str:
    return _emit_csv_object(pairs) if fmt == "csv" else _emit_json_object(pairs)


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
    objects = [
        "{" + ", ".join(f'"{c}": {_fmt(cell)}' for c, cell in zip(columns, row)) + "}"
        for row in rows
    ]
    return "[" + ", ".join(objects) + "]\n"


def _result_pairs(result: KappaResult) -> list[tuple[str, object]]:
    enclosure = result.enclosure
    return [
        ("lo", enclosure.lo),
        ("hi", enclosure.hi),
        ("mid", enclosure.mid),
        ("width", enclosure.width),
        ("width_bound", enclosure.analytic_width_bound + enclosure.fp_slack),
        ("depth", enclosure.depth),
        ("converged", result.converged),
    ]


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _default_depth_cap() -> int:
    raw = os.environ.get("KAPPA_DEPTH_CAP")
    if raw is None:
        return DEFAULT_DEPTH_CAP
    try:
        value = int(raw)
    except ValueError:
        raise SpecError(f"KAPPA_DEPTH_CAP must be an integer, got {raw!r}") from None
    if value < 1:
        raise SpecError(f"KAPPA_DEPTH_CAP must be >= 1, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestrad",
        description="Certified evaluation of nested and transfinite square-root radicals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
        p.add_argument("--tol", type=_positive_float, default=1e-9)
        p.add_argument("--depth-cap", type=_positive_int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a radical to tolerance")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="golden|powertower|ramanujan|constant_raw:<c>|constant_norm:<a>")
    group.add_argument("--spec", help="path to a spec document")
    common(p_eval)

    p_u = sub.add_parser("u", help="sample the transfinite golden-body radical")
    ugroup = p_u.add_mutually_exclusive_group(required=True)
    ugroup.add_argument("--r", type=float)
    ugroup.add_argument("--grid", help="rmin:rmax:count, emits rows r,u_lo,u_hi")
    common(p_u)

    p_uinv = sub.add_parser("u-inv", help="invert the transfinite radical")
    p_uinv.add_argument("--y", type=float, required=True)
    common(p_uinv)
    p_uinv.set_defaults(tol=1e-6)

    p_caps = sub.add_parser("caps", help="tail-supremum interval from a modulus")
    p_caps.add_argument("--mh", type=_positive_float, required=True)
    p_caps.add_argument("--eps", type=_positive_float, required=True)
    common(p_caps)

    p_cf = sub.add_parser("cf", help="continued-function evaluation")
    p_cf.add_argument("--fn", choices=("arctan",), required=True)
    p_cf.add_argument("--terms", required=True, help="comma-separated non-negative terms")
    common(p_cf)

    p_table = sub.add_parser("table", help="per-depth convergence table")
    p_table.add_argument("--family", required=True)
    p_table.add_argument("--depths", required=True, help="lo:hi:step")
    common(p_table, default_format="csv")
    return parser


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"--grid expects rmin:rmax:count, got {text!r}")
    try:
        r_min, r_max, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise SpecError(f"bad --grid value {text!r}") from None
    return r_min, r_max, count


def _parse_depths(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"--depths expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise SpecError(f"bad --depths value {text!r}") from None
    if lo < 1 or hi < lo or step < 1:
        raise SpecError(f"--depths needs 1 <= lo <= hi and step >= 1, got {text!r}")
    return range(lo, hi + 1, step)


def _load_spec(config: CliConfig) -> SequenceSpec:
    source = config.spec_source
    assert source is not None
    if source.startswith("family:"):
        return make_family(source.removeprefix("family:"))
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec file {source!r}: {exc}") from None
    return parse_spec(text, cap_base=path.parent)


def _dispatch(config: CliConfig) -> tuple[int, str]:
    if config.command == "eval":
        spec = _load_spec(config)
        result = kappa_limit(spec, config.tol, config.depth_cap)
        document = _emit_object(_result_pairs(result), config.output_format)
        return (EXIT_OK if result.converged else EXIT_UNCONVERGED), document

    if config.command == "u":
        grid = config.arg("grid")
        if grid is not None:
            r_min, r_max, count = _parse_grid(str(grid))
            rows = u_table(r_min, r_max, count, config.tol)
            return EXIT_OK, emit_table(rows, ["r", "u_lo", "u_hi"], config.output_format)
        r = float(config.arg("r"))
        if not (r >= 0.0 and math.isfinite(r)):
            raise SpecError(f"--r must be finite and >= 0, got {r}")
        result = kappa_limit(u_spec(r), config.tol, config.depth_cap)
        pairs = [("r", r)] + _result_pairs(result)
        document = _emit_object(pairs, config.output_format)
        return (EXIT_OK if result.converged else EXIT_UNCONVERGED), document

    if config.command == "u-inv":
        y = float(config.arg("y"))
        r = u_inverse(y, config.tol)
        pairs = [("y", y), ("r", r), ("tol", config.tol)]
        return EXIT_OK, _emit_object(pairs, config.output_format)

    if config.command == "caps":
        query = SupQuery(float(config.arg("mh")), float(config.arg("eps")))
        lo, hi = sup_enclosure(query)
        pairs = [("m_h", query.m_h), ("epsilon", query.epsilon), ("lo", lo), ("hi", hi)]
        return EXIT_OK, _emit_object(pairs, config.output_format)

    if config.command == "cf":
        raw = str(config.arg("terms"))
        try:
            terms = [float(cell) for cell in raw.split(",") if cell.strip()]
        except ValueError:
            raise SpecError(f"bad --terms value {raw!r}") from None
        if not terms:
            raise SpecError("--terms must list at least one term")
        for term in terms:
            if term < 0.0 or not math.isfinite(term):
                raise SpecError(f"continued-function terms must be finite and >= 0, got {term}")
        result = cf_limit(ContinuedSpec.make(ARCTAN, terms), config.tol, config.depth_cap)
        document = _emit_object(_result_pairs(result), config.output_format)
        return (EXIT_OK if result.converged else EXIT_UNCONVERGED), document

    if config.command == "table":
        spec = make_family(str(config.arg("family")))
        rows = []
        for depth in _parse_depths(str(config.arg("depths"))):
            enclosure = kappa_enclosure(spec, depth)
            rows.append(
                (
                    enclosure.depth,
                    enclosure.lo,
                    enclosure.hi,
                    enclosure.width,
                    enclosure.analytic_width_bound + enclosure.fp_slack,
                )
            )
        columns = ["depth", "lo", "hi", "width", "width_bound"]
        return EXIT_OK, emit_table(rows, columns, config.output_format)

    raise SpecError(f"unknown command {config.command!r}")


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    depth_cap = args.depth_cap if args.depth_cap is not None else _default_depth_cap()
    spec_source = None
    extra: list[tuple[str, object]] = []
    if args.command == "eval":
        spec_source = f"family:{args.family}" if args.family else args.spec
    else:
        for name in ("r", "grid", "y", "mh", "eps", "fn", "terms", "family", "depths"):
            if hasattr(args, name):
                extra.append((name, getattr(args, name)))
    return CliConfig(
        command=args.command,
        spec_source=spec_source,
        tol=args.tol,
        depth_cap=depth_cap,
        output_format=args.format,
        output_path=args.out,
        extra=tuple(extra),
    )


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the command, emit the document; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        status, document = _dispatch(config)
    except (ValueError, RuntimeError) as exc:
        print(f"nestrad: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.output_path is not None:
        try:
            Path(config.output_path).write_text(document, encoding="utf-8")
        except OSError as exc:
            print(f"nestrad: error: cannot write {config.output_path!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(document)
    return status


def main() -> None:
    sys.exit(run())
