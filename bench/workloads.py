"""Seeded input generators for the benchmark workloads.

Every generator returns plain data (tuples of strings and numbers), so two
calls with one seed can be compared for equality and the library only ever
sees the generated values.  Each list is cycled by the runner in identical
passes; the library keeps no cache, so a later pass repeats the same work.

Continuous parameters are drawn by stratified sampling: the unit interval is
cut into as many strata as there are draws, each draw lands in its own
stratum and the strata are shuffled.  Every seed therefore covers each range
evenly, which keeps the per-pass cost and the share of hard inputs close to
equal across seeds while the individual values still differ.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("families", "inverse", "cli")

PHI = (1.0 + math.sqrt(5.0)) / 2.0

FAMILIES_OPS = 1000
INVERSE_OPS = 100
CLI_OPS = 400

TAIL_KINDS = ("zero", "constant_norm", "constant_raw", "omega")
SCALES = ("raw", "lograw", "norm")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, count: int) -> list[float]:
    """``count`` draws from [0, 1), one per stratum, in shuffled order."""
    order = list(range(count))
    rng.shuffle(order)
    return [(slot + rng.random()) / count for slot in order]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _prefix(rng: random.Random, scale: str, length: int) -> tuple[float, ...]:
    """Explicit coefficients on one scale, with zeros and huge log-raw values."""
    values = []
    for k in range(1, length + 1):
        if rng.random() < 0.1:
            values.append(float("-inf") if scale == "lograw" else 0.0)
        elif scale == "raw":
            values.append(10.0 ** rng.uniform(-3.0, 6.0))
        elif scale == "norm":
            values.append(rng.uniform(0.0, 3.0))
        else:
            ln_alpha = rng.uniform(20.0, 300.0) if rng.random() < 0.1 else rng.uniform(-3.0, 3.0)
            values.append(math.ldexp(ln_alpha, k))
    return tuple(values)


def _tail_param(rng: random.Random, kind: str) -> float:
    if kind == "constant_norm":
        return rng.uniform(0.1, 3.0)
    if kind == "constant_raw":
        return 10.0 ** rng.uniform(-2.0, 4.0)
    if kind == "omega":
        return rng.uniform(0.0, 5.0)
    return 0.0


def _family_token(rng: random.Random, name: str) -> str:
    if name == "constant_raw":
        return f"constant_raw:{10.0 ** rng.uniform(-2.0, 4.0):.6g}"
    if name == "constant_norm":
        return f"constant_norm:{10.0 ** rng.uniform(-2.0, 2.0):.6g}"
    return name


def families(seed: int, count: int = FAMILIES_OPS) -> list[tuple]:
    """``kappa_limit`` requests: half named families, half explicit specs.

    Named: ``("family", token, tol)``.  Explicit:
    ``("explicit", scale, values, tail_kind, tail_param, tol)``.
    Slots cycle in tens: five named families, then explicit specs with a
    zero, constant_norm, constant_raw, omega and a random tail.
    """
    rng = _rng("families", seed)
    tol_u = _strata(rng, count)
    explicit_count = sum(1 for i in range(count) if i % 10 >= 5)
    length_u = iter(_strata(rng, explicit_count))
    named = ("golden", "powertower", "ramanujan", "constant_raw", "constant_norm")
    ops = []
    for i in range(count):
        tol = _log_uniform(tol_u[i], 1e-14, 1e-4)
        slot = i % 10
        if slot < 5:
            ops.append(("family", _family_token(rng, named[slot]), tol))
            continue
        kind = TAIL_KINDS[slot - 5] if slot < 9 else rng.choice(TAIL_KINDS)
        scale = rng.choice(SCALES)
        values = _prefix(rng, scale, int(65 * next(length_u)))
        ops.append(("explicit", scale, values, kind, _tail_param(rng, kind), tol))
    return ops


def inverse(seed: int, count: int = INVERSE_OPS) -> list[tuple]:
    """Alternating ``("u_inverse", y, tol)`` and ``("sup", m_h, eps)`` requests."""
    rng = _rng("inverse", seed)
    half = (count + 1) // 2
    a_u, b_u = _strata(rng, half), _strata(rng, half)
    ops = []
    for i in range(count):
        a, b = a_u[i // 2], b_u[i // 2]
        if i % 2 == 0:
            ops.append(("u_inverse", _log_uniform(a, PHI, 1e3), _log_uniform(b, 1e-9, 1e-4)))
        else:
            ops.append(("sup", _log_uniform(a, 0.1, 10.0), _log_uniform(b, 1e-12, 10.0)))
    return ops


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _format_flag(rng: random.Random, default: str = "json") -> list[str]:
    fmt = rng.choice(("csv", "json"))
    return [] if fmt == default and rng.random() < 0.5 else ["--format", fmt]


def _spec_text(rng: random.Random, length_u: float) -> str:
    scale = rng.choice(SCALES)
    values = _prefix(rng, scale, int(33 * length_u))
    kind = rng.choice(TAIL_KINDS)
    body = ",".join(_fmt(v) for v in values)
    tail = "zero" if kind == "zero" else f"{kind}:{_fmt(_tail_param(rng, kind))}"
    return f"# generated\nterms_{scale}=[{body}]\ntail={tail}\n"


_NAMED = ("golden", "powertower", "ramanujan", "constant_raw", "constant_norm")


# One cycle of the cli stream: 16 valid requests over all six subcommands,
# two at the edges of the documented ranges and two invalid ones.
CLI_CYCLE = (
    ("eval",) * 4 + ("spec",) * 2 + ("u",) * 2 + ("grid", "u-inv", "caps") + ("cf",) * 2
    + ("table",) * 3 + ("edge",) * 2 + ("invalid",) * 2
)


def _cli_valid(rng: random.Random, kind: str, index: int, a: float, b: float) -> tuple[list[str], str | None]:
    """One valid argv of a kind, plus spec-file text when it needs one.

    ``a`` and ``b`` are this request's stratified draws for the kind's two
    main cost factors.
    """
    tol = _fmt(10.0 ** (-12.0 + 8.0 * b))
    if kind == "eval":
        family = _family_token(rng, _NAMED[int(5 * a)])
        return ["eval", "--family", family, "--tol", tol, *_format_flag(rng)], None
    if kind == "spec":
        return ["eval", "--spec", f"spec_{index}.spec", "--tol", tol, *_format_flag(rng)], _spec_text(rng, a)
    if kind == "u":
        r = _fmt(20.0 * a)
        return ["u", "--r", r, "--tol", _fmt(10.0 ** (-10.0 + 6.0 * b)), *_format_flag(rng)], None
    if kind == "grid":
        r_min = rng.uniform(0.0, 5.0)
        grid = f"{_fmt(r_min)}:{_fmt(r_min + rng.uniform(0.0, 10.0))}:{2 + int(9 * a)}"
        return ["u", "--grid", grid, "--tol", _fmt(10.0 ** (-9.0 + 4.0 * b)), *_format_flag(rng)], None
    if kind == "u-inv":
        y = _fmt(_log_uniform(a, PHI, 200.0))
        return ["u-inv", "--y", y, "--tol", _fmt(10.0 ** (-8.0 + 4.0 * b)), *_format_flag(rng)], None
    if kind == "caps":
        mh = _fmt(_log_uniform(a, 0.1, 10.0))
        eps = _fmt(_log_uniform(b, 1e-12, 10.0))
        return ["caps", "--mh", mh, "--eps", eps, *_format_flag(rng)], None
    if kind == "cf":
        terms = ",".join(_fmt(rng.uniform(0.0, 10.0)) for _ in range(1 + int(300 * a)))
        cf_tol = _fmt(10.0 ** (-1.0 + 1.3 * b))
        return ["cf", "--fn", "arctan", "--terms", terms, "--tol", cf_tol, *_format_flag(rng)], None
    family = _family_token(rng, rng.choice(_NAMED))
    lo = rng.randint(1, 32)
    hi = lo + int((257 - lo) * a)
    depths = f"{lo}:{hi}:{max(1, (hi - lo) // (1 + int(10 * b)))}"
    return ["table", "--family", family, "--depths", depths, *_format_flag(rng, "csv")], None


def _cli_edge(rng: random.Random, turn: int) -> list[str]:
    """Valid requests at the edges of the documented ranges."""
    kind = turn % 6
    if kind == 0:
        family = rng.choice(("powertower", "constant_norm:1.5", "golden"))
        lo = rng.randint(1000, 1100)
        return ["table", "--family", family, "--depths", f"{lo}:{lo + 100}:50"]
    if kind == 1:
        family = rng.choice(("golden", "constant_norm:2", "ramanujan"))
        cap = str(rng.randint(1024, 2048))
        return ["eval", "--family", family, "--depth-cap", cap, "--tol", "1e-300"]
    if kind == 2:
        return ["u-inv", "--y", _fmt(10.0 ** rng.uniform(299.0, 300.0))]
    if kind == 3:
        grid = f"1:{rng.randint(2, 10)}:{rng.randint(2, 5)}"
        return ["u", "--grid", grid, "--tol", _fmt(rng.uniform(5e-16, 2e-15))]
    if kind == 4:
        family = rng.choice(_NAMED[:3])
        return ["eval", "--family", family, "--tol", _fmt(rng.uniform(2.3e-16, 9e-16))]
    return ["u", "--r", _fmt(rng.uniform(1.0, 10.0)), "--tol", _fmt(rng.uniform(5e-16, 2e-15))]


def _cli_invalid(rng: random.Random, turn: int) -> list[str]:
    """Argv that the documented interface must refuse with exit 2."""
    kind = turn % 10
    number = _fmt(rng.uniform(1.0, 9.0))
    return [
        ["eval"],
        ["eval", "--family", "golden", "--tol", "-" + number],
        ["eval", "--family", f"nosuch{rng.randint(0, 99)}"],
        ["table", "--family", "golden", "--depths", f"{rng.randint(10, 20)}:{rng.randint(1, 9)}:1"],
        ["cf", "--fn", "arctan", "--terms", f"{number},x"],
        ["u", "--grid", f"1:{number}"],
        ["caps", "--mh", "0", "--eps", number],
        ["eval", "--spec", f"missing_{rng.randint(0, 99)}.spec"],
        ["frobnicate", number],
        ["u", "--r", "-" + number],
    ][kind]


def cli(seed: int, count: int = CLI_OPS) -> list[tuple]:
    """In-process ``cli.run`` requests as ``(class, argv, spec_files)``.

    ``class`` is ``valid``, ``edge`` (valid, at a documented range edge) or
    ``invalid`` (must exit 2).  ``spec_files`` pairs each relative file name
    in the argv with its text; the runner writes them into a work directory
    and rewrites the names to paths there.  Requests follow ``CLI_CYCLE``.
    """
    rng = _rng("cli", seed)
    kinds = [CLI_CYCLE[i % len(CLI_CYCLE)] for i in range(count)]
    draws = {
        kind: iter(zip(_strata(rng, kinds.count(kind)), _strata(rng, kinds.count(kind))))
        for kind in sorted(set(kinds) - {"edge", "invalid"})
    }
    ops = []
    edge_turn = invalid_turn = 0
    for i, kind in enumerate(kinds):
        if kind == "edge":
            ops.append(("edge", tuple(_cli_edge(rng, edge_turn)), ()))
            edge_turn += 1
        elif kind == "invalid":
            ops.append(("invalid", tuple(_cli_invalid(rng, invalid_turn)), ()))
            invalid_turn += 1
        else:
            argv, text = _cli_valid(rng, kind, i, *next(draws[kind]))
            files = ((f"spec_{i}.spec", text),) if text is not None else ()
            ops.append(("valid", tuple(argv), files))
    return ops


GENERATORS = {"families": families, "inverse": inverse, "cli": cli}
