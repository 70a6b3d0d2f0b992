"""mpmath references and output checks for the benchmark workloads.

The references never touch the library under test.  They evaluate radicals
by direct truncation at 256-bit precision:

* U(r) by one deep truncation: v = r ** 2**n, then n steps v <- sqrt(1 + v).
  U is increasing and its truncations approach it from below, so the
  truncation is a lower bound whose gap to U(r) is below
  max(1, r) * 2**-(n-2); at n = 200 that is far under binary64 resolution.
* every other radical through the exact value of its tail, folded through
  the prefix with v <- sqrt(a_k + v).

A check returns ``None`` for a correct output, or a short failure class
such as ``excludes_reference``.  Results whose truth is within the
reference's own error of an endpoint count as correct.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

PREC = 256
U_DEPTH = 200
# relative slack covering the references' own truncation error
REF_SLACK = mp.mpf(2) ** -180

with mp.workprec(PREC):
    PHI_MP = (1 + mp.sqrt(5)) / 2


def u_lower(r: float | mp.mpf) -> mp.mpf:
    """Truncation of U at depth U_DEPTH: a lower bound, tight to 2**-198."""
    with mp.workprec(PREC):
        v = mp.mpf(r)
        for _ in range(U_DEPTH):
            v = v * v
        for _ in range(U_DEPTH):
            v = mp.sqrt(1 + v)
        return v


def _u_gap(r: float | mp.mpf) -> mp.mpf:
    return max(mp.mpf(1), mp.mpf(r)) * mp.mpf(2) ** -(U_DEPTH - 2)


def family_value(token: str) -> mp.mpf:
    """Exact limit of a named family token, e.g. ``constant_raw:6``."""
    name, _, param = token.partition(":")
    with mp.workprec(PREC):
        if name == "golden":
            return +PHI_MP
        if name == "powertower":
            return 2 * PHI_MP
        if name == "ramanujan":
            return mp.mpf(3)
        value = mp.mpf(float(param))
        if name == "constant_norm":
            return value * PHI_MP
        if name == "constant_raw":
            return (1 + mp.sqrt(1 + 4 * value)) / 2 if value > 0 else mp.mpf(0)
    raise ValueError(f"unknown family {token!r}")


def _raw_coefficient(scale: str, value: float, k: int) -> mp.mpf:
    if scale == "raw":
        return mp.mpf(value)
    if scale == "norm":
        return mp.mpf(value) ** (2**k)
    return mp.exp(value) if value != -math.inf else mp.mpf(0)


def explicit_value(scale: str, values, tail_kind: str, tail_param: float) -> mp.mpf:
    """Exact limit of an explicit prefix on one scale followed by a tail."""
    p = len(values)
    with mp.workprec(PREC):
        if tail_kind == "zero":
            v = mp.mpf(0)
        elif tail_kind == "constant_norm":
            # alpha_k = alpha past p: the tail is alpha ** 2**p times phi
            v = mp.mpf(tail_param) ** (2**p) * PHI_MP
        elif tail_kind == "constant_raw":
            c = mp.mpf(tail_param)
            v = (1 + mp.sqrt(1 + 4 * c)) / 2 if c > 0 else mp.mpf(0)
        elif tail_kind == "omega":
            # ones past p with r at the transfinite index: U(r ** 2**p)
            v = u_lower(mp.mpf(tail_param) ** (2**p))
        else:
            raise ValueError(f"unknown tail {tail_kind!r}")
        for k in range(p, 0, -1):
            v = mp.sqrt(_raw_coefficient(scale, values[k - 1], k) + v)
        return v


def cf_range(terms) -> tuple[mp.mpf, mp.mpf]:
    """Continued arctan over all terms, with the smallest and largest tail."""
    with mp.workprec(PREC):
        low, high = mp.mpf(0), mp.pi / 2
        for term in reversed(terms):
            low = mp.atan(term + low)
            high = mp.atan(term + high)
        return low, high


def _contains(lo: float, hi: float, truth: mp.mpf) -> bool:
    slack = REF_SLACK * abs(truth)
    return lo <= truth + slack and truth - slack <= hi


def check_enclosure(lo: float, hi: float, width: float, converged: bool, tol: float, truth) -> str | None:
    if not lo <= hi:
        return "lo_gt_hi"
    if not _contains(lo, hi, truth):
        return "excludes_reference"
    if converged and not width <= tol:
        return "width_above_tol"
    return None


def check_inverse(y: float, tol: float, r: float) -> str | None:
    """u_inverse promises |U(r) - y| <= tol."""
    if not r >= 1.0:
        return "inverse_below_one"
    lower = u_lower(r)
    with mp.workprec(PREC):
        if lower > mp.mpf(y) + mp.mpf(tol) or lower + _u_gap(r) < mp.mpf(y) - mp.mpf(tol):
            return "inverse_off"
    return None


def check_sup(m_h: float, eps: float, lo: float, hi: float) -> str | None:
    """[lo, hi] must contain [M_H, M_H * U^-1(eps / M_H + phi)].

    U is increasing, so hi is high enough exactly when U(hi / M_H) reaches
    eps / M_H + phi: one deep truncation at hi / M_H decides it.
    """
    if not lo <= hi:
        return "lo_gt_hi"
    if lo > m_h:
        return "sup_lo_above_mh"
    with mp.workprec(PREC):
        target = mp.mpf(eps) / mp.mpf(m_h) + PHI_MP
        r = mp.mpf(hi) / mp.mpf(m_h)
        if u_lower(r) + _u_gap(r) < target:
            return "sup_below_exact"
    return None


# ---------------------------------------------------------------------------
# library results


def check_families(op: tuple, outcome, spec_texts: dict) -> str | None:
    if isinstance(outcome, BaseException):
        return f"exception:{type(outcome).__name__}"
    if op[0] == "family":
        truth = family_value(op[1])
    else:
        truth = explicit_value(op[1], op[2], op[3], op[4])
    enclosure = outcome.enclosure
    return check_enclosure(
        enclosure.lo, enclosure.hi, enclosure.width, outcome.converged, op[-1], truth
    )


def check_inverse_op(op: tuple, outcome, spec_texts: dict) -> str | None:
    if isinstance(outcome, BaseException):
        return f"exception:{type(outcome).__name__}"
    if op[0] == "u_inverse":
        return check_inverse(op[1], op[2], outcome)
    lo, hi = outcome
    return check_sup(op[1], op[2], lo, hi)


# ---------------------------------------------------------------------------
# CLI documents

_DEFAULT_TOL = {"u-inv": 1e-6}


def flag(argv, name: str, default=None):
    for i, token in enumerate(argv[:-1]):
        if token == name:
            return argv[i + 1]
    return default


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse_document(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI document in either output format."""
    if fmt == "json":
        document = json.loads(text)
        return document if isinstance(document, list) else [document]
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError("ragged csv row")
        rows.append(dict(zip(header, map(_cell, cells))))
    return rows


def spec_truth(text: str) -> mp.mpf:
    """Exact value of a generated ``terms_*`` / ``tail`` spec document."""
    fields = dict(
        line.split("=", 1) for line in text.splitlines() if line and not line.startswith("#")
    )
    (key,) = [k for k in fields if k.startswith("terms_")]
    body = fields[key].strip()[1:-1]
    values = [float(cell) for cell in body.split(",")] if body else []
    kind, _, param = fields.get("tail", "zero").partition(":")
    return explicit_value(key.removeprefix("terms_"), values, kind, float(param or 0.0))


def _result_checks(rows, status: int, tol: float, *truths) -> str | None:
    """A one-row result document must contain every truth."""
    if len(rows) != 1:
        return "unparseable"
    row = rows[0]
    converged = row["converged"]
    if status != (0 if converged else 3):
        return "converged_mismatch"
    for truth in truths:
        failure = check_enclosure(row["lo"], row["hi"], row["width"], converged, tol, truth)
        if failure:
            return failure
    return None


def check_cli(op: tuple, outcome, spec_texts: dict) -> str | None:
    """Check one ``cli.run`` outcome: ``(status, stdout)`` or an exception."""
    kind, argv, _files = op
    if isinstance(outcome, BaseException):
        return f"exception:{type(outcome).__name__}"
    status, out = outcome
    if kind == "invalid":
        return None if status == 2 else f"accepted_invalid:{status}"
    if status == 2:
        return "refused_valid"
    if status not in (0, 3):
        return f"bad_exit:{status}"
    command = argv[0]
    fmt = flag(argv, "--format", "csv" if command == "table" else "json")
    tol = float(flag(argv, "--tol", _DEFAULT_TOL.get(command, 1e-9)))
    try:
        rows = parse_document(out, fmt)
        return _check_rows(command, argv, rows, status, tol, spec_texts)
    except (ValueError, KeyError, TypeError, IndexError):
        return "unparseable"


def _check_rows(command, argv, rows, status, tol, spec_texts) -> str | None:
    if command == "eval":
        family = flag(argv, "--family")
        truth = family_value(family) if family else spec_truth(spec_texts[flag(argv, "--spec")])
        return _result_checks(rows, status, tol, truth)
    if command == "u" and flag(argv, "--r") is not None:
        r = float(flag(argv, "--r"))
        if rows and rows[0].get("r") != r:
            return "unparseable"
        return _result_checks(rows, status, tol, u_lower(r))
    if command == "cf":
        # the enclosure must hold whatever non-negative terms follow
        terms = [float(cell) for cell in flag(argv, "--terms").split(",")]
        return _result_checks(rows, status, tol, *cf_range(terms))
    if status != 0:
        return f"bad_exit:{status}"
    if command == "u":
        r_min, r_max, count = flag(argv, "--grid").split(":")
        if len(rows) != int(count):
            return "unparseable"
        for row in rows:
            failure = check_enclosure(row["u_lo"], row["u_hi"], 0.0, False, tol, u_lower(row["r"]))
            if failure:
                return failure
        return None
    if command == "u-inv":
        (row,) = rows
        return check_inverse(float(flag(argv, "--y")), tol, row["r"])
    if command == "caps":
        (row,) = rows
        return check_sup(row["m_h"], row["epsilon"], row["lo"], row["hi"])
    if command == "table":
        lo, hi, step = (int(part) for part in flag(argv, "--depths").split(":"))
        if [row["depth"] for row in rows] != list(range(lo, hi + 1, step)):
            return "unparseable"
        truth = family_value(flag(argv, "--family"))
        for row in rows:
            failure = check_enclosure(row["lo"], row["hi"], row["width"], False, tol, truth)
            if failure:
                return failure
        return None
    return "unparseable"


CHECKS = {"families": check_families, "inverse": check_inverse_op, "cli": check_cli}


def converged(workload: str, op: tuple, outcome) -> bool | None:
    """Whether a result reports convergence; None when it carries no flag.

    ``u_inverse`` and ``sup_enclosure`` return bare numbers, but their inner
    U evaluations raise when they miss their width, so a returned value
    counts as converged.
    """
    if workload == "families":
        return not isinstance(outcome, BaseException) and outcome.converged
    if workload == "inverse":
        return not isinstance(outcome, BaseException)
    kind, argv, _ = op
    carries = argv[0] in ("eval", "cf") or (argv[0] == "u" and "--r" in argv)
    if kind == "invalid" or not carries:
        return None
    if isinstance(outcome, BaseException) or outcome[0] not in (0, 3):
        return False
    try:
        return bool(parse_document(outcome[1], flag(argv, "--format", "json"))[0]["converged"])
    except (ValueError, KeyError, IndexError):
        return False
