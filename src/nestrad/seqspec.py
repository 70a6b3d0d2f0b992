"""Coefficient sequences for nested square-root radicals.

A radical sqrt(a_1 + sqrt(a_2 + sqrt(a_3 + ...))) is stored by its
normalized coefficients alpha_k = a_k ** (1 / 2**k), as ln(alpha_k) with
``-inf`` encoding a_k = 0.  This is the scale of Herschfeld's theorem (the
radical converges iff sup alpha_k < inf) and the one on which tail suprema,
seeds, and convergence caps live.  It is also the only log scale that stays
in range: ln(a_k) = 2**k * ln(alpha_k) leaves binary64 past depth 1023 for
any alpha_k != 1.  Raw values a_k and their logs ln(a_k) appear only at the
edges, as input scales of :func:`explicit` and of the ``terms_*`` lines of
:func:`parse_spec`.

A :class:`SequenceSpec` is a finite prefix of ln(alpha_k) values plus a
tail model.  The tail model plays two roles: it extends the sequence past
the stored prefix when an evaluation needs deeper coefficients, and it
reports per-depth seed bounds ``(ln_lower, ln_cap)``, logs like the
coefficients (``-inf`` for 0), used to bracket the tail's contribution.
The two bounds carry different obligations:

* ``ln_lower`` at depth ``n`` must not exceed the log of the normalized
  value of the whole tail radical from index ``n`` (seeding with it can
  only shrink the result);
* ``ln_cap`` at depth ``n`` must be at least every ln(alpha_k) with
  ``k >= n`` (capping with it, golden-boosted, can only grow the result).

Because a tail's *value* generally exceeds its coefficient supremum, a tight
``ln_lower`` may legitimately be larger than ``ln_cap``; validity of an
enclosure only requires ``ln_lower <= ln_cap + 2**-(n-1) * ln(phi)``,
which the evaluation engine checks.

All types here are immutable after construction and every function is pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from ._record import Record
from .nested import _DEEPEST_LEVEL, _INV_POW2

__all__ = [
    "SpecError",
    "TailModel",
    "ZeroTail",
    "ConstantNormalizedTail",
    "ConstantRawTail",
    "CapTableTail",
    "OmegaTail",
    "RamanujanTail",
    "SequenceSpec",
    "golden",
    "power_tower",
    "ramanujan",
    "constant_raw",
    "constant_normalized",
    "explicit",
    "make_family",
    "parse_spec",
    "load_cap_table",
    "RAMANUJAN_SUP_BOUND",
]

_NEG_INF = float("-inf")
_INF = float("inf")

# ln(phi); kappa_enclosure boosts the cap at depth n by 2**-(n-1) times it
LN_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def _ln(value: float) -> float:
    """ln(value) for value >= 0, with -inf for 0."""
    return math.log(value) if value != 0.0 else _NEG_INF


class SpecError(ValueError):
    """Malformed sequence-spec document or tail description."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def _check_ln_alpha(ln_alpha: float, index: int) -> None:
    # alpha_k = exp(ln_alpha) must be a finite double that is zero exactly when
    # ln_alpha is -inf: the fold refuses one past binary64 only later, unnamed.
    if ln_alpha == _NEG_INF:
        return
    try:
        alpha = math.exp(ln_alpha)
    except OverflowError:
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        raise ValueError(
            f"coefficient {index} needs ln(alpha) = -inf or exp(ln(alpha)) finite and > 0, "
            f"got ln(alpha) = {ln_alpha}"
        )


class TailModel(Record):
    """How a sequence continues past its stored prefix.

    Subclasses are records that provide ``ln_alphas(first, last)``
    (ln(alpha_k) for k = first..last, or raise if coefficients past the
    prefix are unknown) and ``ln_bounds(n)`` (the per-depth seed logs).
    Both depend on their arguments only: a spec with a prefix asks its tail
    for ``ln_bounds(len(prefix) + 1)`` once, when it is built.

    The larger of the two seed logs must not grow with depth: at no depth
    past n does it exceed its value at n.  The swamp depth of the
    :mod:`nestrad.kappa` docstring rests on this.  The built-in tails keep
    it: both seeds of :class:`ConstantRawTail` fall with depth, the lower
    seed of :class:`RamanujanTail` rises but stays below its constant cap,
    the other tails' seeds are constant, and a :class:`CapTableTail` pins
    the depth.  A tail that breaks it still gets certified enclosures; the
    depth search may then stop with one that is not the narrowest.
    """

    __slots__ = ()

    def ln_alphas(self, first: int, last: int) -> list[float]:
        raise NotImplementedError

    def ln_bounds(self, n: int) -> tuple[float, float]:
        raise NotImplementedError


class ZeroTail(TailModel):
    """The sequence ends: every coefficient past the prefix is zero."""

    __slots__ = ()

    def ln_alphas(self, first: int, last: int) -> list[float]:
        return [_NEG_INF] * (last - first + 1)

    def ln_bounds(self, n: int) -> tuple[float, float]:
        return (_NEG_INF, _NEG_INF)


class ConstantNormalizedTail(TailModel):
    """Constant normalized coefficient: alpha_k = alpha for every tail index.

    The tail supremum is exactly ``alpha``, so both seed bounds equal it.
    """

    __slots__ = ("alpha", "_ln_alpha")

    def __init__(self, alpha: float):
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise ValueError(f"tail alpha must be finite and >= 0, got {alpha}")
        self._set_alpha(self, alpha)
        self._set__ln_alpha(self, _ln(alpha))

    def ln_alphas(self, first: int, last: int) -> list[float]:
        return [self._ln_alpha] * (last - first + 1)

    def ln_bounds(self, n: int) -> tuple[float, float]:
        return (self._ln_alpha, self._ln_alpha)


class ConstantRawTail(TailModel):
    """Constant raw coefficient: a_k = raw for every tail index.

    The normalized coefficients raw ** (2 ** -k) drift toward 1, so the seed
    bounds depend on depth:

    * the tail radical from any depth has raw value equal to the fixed point
      x = sqrt(raw + x), i.e. (1 + sqrt(1 + 4 raw)) / 2, which supplies an
      exact ``lower_seed`` of fixed_point ** (2 ** -(n-1));
    * the coefficient supremum from depth n is max(1, raw ** (2 ** -n)).

    Seeding the lower side at the fixed point makes the lower bound of the
    enclosure exact at every depth.
    """

    __slots__ = ("raw", "_ln_raw", "_ln_fixed_point")

    def __init__(self, raw: float):
        if not (raw >= 0.0 and math.isfinite(raw)):
            raise ValueError(f"tail raw value must be finite and >= 0, got {raw}")
        self._set_raw(self, raw)
        self._set__ln_raw(self, _ln(raw))
        self._set__ln_fixed_point(self, math.log(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * raw))))

    def ln_alphas(self, first: int, last: int) -> list[float]:
        ln_raw = self._ln_raw
        return [math.ldexp(ln_raw, -k) for k in range(first, last + 1)]

    def ln_bounds(self, n: int) -> tuple[float, float]:
        if self.raw == 0.0:
            return (_NEG_INF, _NEG_INF)
        ln_cap = math.ldexp(self._ln_raw, -n)
        return (math.ldexp(self._ln_fixed_point, 1 - n), ln_cap if ln_cap > 0.0 else 0.0)


class CapTableTail(TailModel):
    """Seed bounds supplied row by row (e.g. from a CSV file).

    The table only certifies bounds; it cannot extend the coefficient
    sequence, so evaluation depth is pinned at ``len(prefix) + 1``.  Rows are
    ``(n, lower_seed, upper_cap)``, logged once here.  Queries past the last
    row fall back to ``(0, last_upper_cap)``: a cap stays valid for deeper
    tails, a lower seed does not.  Queries before the first row are refused.

    A row is the caller's exact claim, so its logs are stored outward: the
    lower seed's two ``nextafter`` steps down, the cap's two up, and a zero
    as ``-inf``.  ``math.log`` lies within 1 ulp of the exact log
    (``tests/test_libm.py``), so the stored log lies in the exact log's
    binade or next to it, and a step toward the exact log is at least half
    that ulp, a whole one within its binade; two steps reach past it.
    """

    __slots__ = ("rows", "_table", "_last")

    def __init__(self, rows: tuple[tuple[int, float, float], ...]):
        if not rows:
            raise SpecError("cap table must contain at least one row")
        table = {}
        for n, lower, upper in rows:
            if n < 1:
                raise SpecError(f"cap table depth must be >= 1, got {n}")
            if n in table:
                raise SpecError(f"duplicate cap table depth {n}")
            if not (lower >= 0.0 and upper >= 0.0 and math.isfinite(lower) and math.isfinite(upper)):
                raise SpecError(f"cap table bounds at depth {n} must be finite and >= 0")
            ln_cap = math.nextafter(math.nextafter(math.log(upper), _INF), _INF) if upper > 0.0 else _NEG_INF
            table[n] = (math.nextafter(math.nextafter(_ln(lower), _NEG_INF), _NEG_INF), ln_cap)
        self._set_rows(self, rows)
        # derived lookup state, built once; private slots are not fields
        self._set__table(self, table)
        self._set__last(self, max(table))

    def ln_alphas(self, first: int, last: int) -> list[float]:
        raise SpecError("cap-table tails certify bounds only and cannot supply coefficients")

    def ln_bounds(self, n: int) -> tuple[float, float]:
        if n in self._table:
            return self._table[n]
        if n > self._last:
            return (_NEG_INF, self._table[self._last][1])
        raise SpecError(f"cap table does not cover depth {n}")


class OmegaTail(TailModel):
    """Golden continuation with a transfinite seed.

    Every remaining finite coefficient is 1 and the sequence carries one more
    value ``omega_value`` at the transfinite position: at evaluation depth d
    it enters the innermost radical as omega_value ** (2 ** d).  This is the
    shape of the U function, U(r) = lim of r, sqrt(1 + r**2),
    sqrt(1 + sqrt(1 + r**4)), ...  The coefficient supremum from any depth is
    max(1, omega_value), and seeding with that supremum is also a valid lower
    seed, so both bounds coincide.
    """

    __slots__ = ("omega_value", "_ln_cap")

    def __init__(self, omega_value: float):
        if not (omega_value >= 0.0 and math.isfinite(omega_value)):
            raise ValueError(f"omega value must be finite and >= 0, got {omega_value}")
        self._set_omega_value(self, omega_value)
        self._set__ln_cap(self, math.log(max(1.0, omega_value)))

    def ln_alphas(self, first: int, last: int) -> list[float]:
        return [0.0] * (last - first + 1)

    def ln_bounds(self, n: int) -> tuple[float, float]:
        return (self._ln_cap, self._ln_cap)


def _ramanujan_table() -> tuple[float, ...]:
    # v_k = 2**-k * ln(m_k) for the multiplier chain m_1 = 2, m_{k+1} = m_k**2
    # * (k+2), so v_k = v_{k-1} + 2**-k * ln(k+1), and alpha_k = exp(v_{k-1}).
    # The table ends at the first increment that leaves v unchanged in
    # binary64 (k = 56); every later one is smaller and rounds away too, so
    # each deeper v_k equals the last entry.
    v = [0.0]
    while (following := v[-1] + math.ldexp(math.log(len(v) + 1), -len(v))) != v[-1]:
        v.append(following)
    return tuple(v)


_RAMANUJAN_V = _ramanujan_table()

# The normalized coefficients increase toward exp(lim v_k).  The remainder
# past the table, the sum of 2**-k * ln(k+1) over k >= 56, is below 2**-52;
# the (1 + 1e-13) bump keeps the constant an upper bound despite it and the
# summation rounding.
RAMANUJAN_SUP_BOUND = math.exp(_RAMANUJAN_V[-1]) * (1.0 + 1e-13)
_LN_RAMANUJAN_SUP = math.log(RAMANUJAN_SUP_BOUND)


class RamanujanTail(TailModel):
    """Coefficients of sqrt(1 + 2 sqrt(1 + 3 sqrt(1 + ...))) = 3.

    Pushing the multipliers inward gives a_1 = 1 and a_{k+1} = m_k ** 2 with
    m_1 = 2, m_{k+1} = m_k ** 2 * (k + 2).  The normalized coefficients
    increase strictly toward :data:`RAMANUJAN_SUP_BOUND` (about 2.7612), so
    the cap at depth n is the limit bound and the lower seed is the n-th
    coefficient itself.
    """

    __slots__ = ()

    def ln_alphas(self, first: int, last: int) -> list[float]:
        known = list(_RAMANUJAN_V[first - 1:last])
        return known + [_RAMANUJAN_V[-1]] * (last - first + 1 - len(known))

    def ln_bounds(self, n: int) -> tuple[float, float]:
        return (_RAMANUJAN_V[min(n, len(_RAMANUJAN_V)) - 1], _LN_RAMANUJAN_SUP)


class SequenceSpec(Record):
    """A coefficient sequence: ln(alpha_k) for k = 1..len(prefix) plus a tail model.

    A spec with a prefix computes its seed pair at each prefix depth, and
    its swamp depth, once, when it is built (:func:`_prefix_bounds`), into
    a private slot that equality, hashing, ``repr`` and pickling do not
    see.  So it asks its tail for the bounds at ``len(prefix) + 1`` then,
    and whatever the tail raises there, building the spec raises.
    """

    __slots__ = ("prefix", "tail", "_bounds")

    def __init__(self, prefix: tuple[float, ...], tail: TailModel):
        if prefix:  # u_spec builds one with an empty prefix for every U^-1 probe
            for index, ln_alpha in enumerate(prefix, start=1):
                _check_ln_alpha(ln_alpha, index)
            self._set__bounds(self, _prefix_bounds(prefix, tail))
        self._set_prefix(self, prefix)
        self._set_tail(self, tail)

    def terms_lograw(self, count: int) -> list[float]:
        """ln(alpha_k) for k = 1..count, extending past the prefix if needed.

        Despite the name these are normalized logs, ln(alpha_k) =
        2**-k * ln(a_k), the input scale of :func:`sqrt_nested_scaled`.
        """
        prefix = self.prefix
        if count <= len(prefix):
            return list(prefix[:count])
        tail = self.tail.ln_alphas(len(prefix) + 1, count)
        return [*prefix, *tail] if prefix else tail

    def max_depth(self) -> int | None:
        """Deepest usable evaluation depth: ``len(prefix) + 1`` for a cap-table tail, else None."""
        return len(self.prefix) + 1 if isinstance(self.tail, CapTableTail) else None

    def _swamp_depth(self) -> int | None:
        """The swamp depth that :func:`_prefix_bounds` found, or None."""
        return self._bounds[1] if self.prefix else None

    def tail_bounds(self, n: int) -> tuple[float, float]:
        """Seed bounds ``(ln_lower, ln_cap)`` at depth n, folding in prefix coefficients >= n.

        Past the prefix these are the tail's; at a prefix depth, the pair
        that :func:`_prefix_bounds` computed when the spec was built.
        """
        if n < 1:
            raise ValueError(f"depth must be >= 1, got {n}")
        if n > len(self.prefix):
            return self.tail.ln_bounds(n)
        return self._bounds[0][n - 1]


def _prefix_bounds(
    prefix: tuple[float, ...], tail: TailModel
) -> tuple[list[tuple[float, float]], int | None]:
    """``(seeds, swamp)``: seeds[n-1] is the seed pair ``(ln_lower, ln_cap)`` at prefix depth n.

    At depth n, max(prefix[n-1:]) replaces either bound of the tail at
    depth len(prefix) + 1 that it exceeds: any single coefficient is a
    valid lower seed, and the cap must dominate every coefficient from n
    on.  A tie keeps the tail's bound, and among equal coefficients the
    shallowest, the one ``max()`` returns: with -0.0 and 0.0 the sign
    shows.  Whatever the tail raises at len(prefix) + 1 propagates.

    ``swamp`` is the swamp depth of the :mod:`nestrad.kappa` docstring, or
    None.  Only a coefficient above B_k, the largest of the tail's bounds
    and the coefficients after it, can swamp, so the loop that keeps the
    suffix maxima tests only those.
    """
    lower, upper = tail.ln_bounds(len(prefix) + 1)
    seeds = []
    top = _NEG_INF
    most = lower if lower > upper else upper  # B_k: the tail's bounds and every coefficient after k
    swamp = None
    for ln_alpha in reversed(prefix):
        if ln_alpha >= top:
            if ln_alpha > most:  # only a coefficient above B_k can swamp
                k = len(prefix) - len(seeds)
                if k <= _DEEPEST_LEVEL:
                    s = _INV_POW2[k]
                    if (math.nextafter(most + s * LN_PHI, _INF) - ln_alpha) / s <= -40.0:
                        swamp = k + 1
                most = ln_alpha
            top = ln_alpha
        seeds.append((top if top > lower else lower, top if top > upper else upper))
    seeds.reverse()
    return seeds, swamp


def golden() -> SequenceSpec:
    """All-ones radical sqrt(1 + sqrt(1 + ...)), whose value is phi."""
    return SequenceSpec((), ConstantNormalizedTail(1.0))


def power_tower() -> SequenceSpec:
    """a_k = 2 ** 2**k, i.e. constant normalized coefficient 2; value 2*phi."""
    return SequenceSpec((), ConstantNormalizedTail(2.0))


def ramanujan() -> SequenceSpec:
    """sqrt(1 + 2 sqrt(1 + 3 sqrt(1 + ...))) with multipliers pushed inward."""
    return SequenceSpec((), RamanujanTail())


def constant_raw(value: float) -> SequenceSpec:
    """a_k = value for every k; converges to the fixed point of sqrt(value + x)."""
    return SequenceSpec((), ConstantRawTail(float(value)))


def constant_normalized(alpha: float) -> SequenceSpec:
    """alpha_k = alpha for every k; converges to alpha * phi."""
    return SequenceSpec((), ConstantNormalizedTail(float(alpha)))


_TO_LN_ALPHA = {
    "raw": lambda raw, k: math.ldexp(_ln(raw), -k),
    "lograw": lambda log_raw, k: math.ldexp(log_raw, -k),
    "norm": lambda alpha, k: _ln(alpha),
}


def explicit(
    values: Sequence[float], scale: str = "raw", tail: TailModel | None = None
) -> SequenceSpec:
    """Spec from listed coefficients on the given scale (raw/lograw/norm).

    ``values[k-1]`` is a_k, ln(a_k) or alpha_k; zero (``-inf`` on the lograw
    scale) encodes a zero coefficient.  Each is converted to ln(alpha_k).
    """
    try:
        to_ln_alpha = _TO_LN_ALPHA[scale]
    except KeyError:
        raise ValueError(f"unknown term scale {scale!r}") from None
    prefix = []
    for k, value in enumerate(values, start=1):
        value = float(value)
        if scale != "lograw" and value < 0.0:
            raise ValueError(f"negative term {value} at index {k}")
        prefix.append(to_ln_alpha(value, k))
    return SequenceSpec(tuple(prefix), tail if tail is not None else ZeroTail())


_FAMILY_BUILDERS = {
    "golden": golden,
    "powertower": power_tower,
    "ramanujan": ramanujan,
}


def make_family(token: str) -> SequenceSpec:
    """Family from its CLI/grammar token, e.g. ``golden`` or ``constant_raw:6``."""
    name, colon, _ = token.partition(":")
    name = name.strip().lower()
    if name in _FAMILY_BUILDERS:
        if colon:
            raise SpecError(f"family {name!r} takes no parameter")
        return _FAMILY_BUILDERS[name]()
    if name in ("constant_raw", "constant_norm"):
        return SequenceSpec((), _parse_tail(token))
    raise SpecError(f"unknown family {token!r}")


def load_cap_table(source: str | os.PathLike[str]) -> CapTableTail:
    """Cap table from a CSV file with header ``n,lower_seed,upper_cap``."""
    import csv
    import io

    with open(source, encoding="utf-8") as stream:
        reader = csv.reader(io.StringIO(stream.read()))
    try:
        header = next(reader)
    except StopIteration:
        raise SpecError(f"cap table {source} is empty") from None
    if [h.strip() for h in header] != ["n", "lower_seed", "upper_cap"]:
        raise SpecError(f"cap table {source} must start with header n,lower_seed,upper_cap")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise SpecError(f"cap table {source} line {lineno}: expected 3 columns")
        try:
            rows.append((int(row[0]), float(row[1]), float(row[2])))
        except ValueError:
            raise SpecError(f"cap table {source} line {lineno}: bad number") from None
    return CapTableTail(tuple(rows))


def _parse_number_list(body: str, line: int) -> list[float]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SpecError("expected a bracketed list like [1,2,3]", line)
    inner = body[1:-1].strip()
    if not inner:
        return []
    try:
        return [float(cell.strip()) for cell in inner.split(",")]
    except ValueError:
        raise SpecError(f"bad number in list {body!r}", line) from None


_NUMERIC_TAILS = {
    "constant_norm": ConstantNormalizedTail,
    "constant_raw": ConstantRawTail,
    "omega": OmegaTail,
}


def _parse_tail(
    value: str, line: int | None = None, cap_base: str | os.PathLike[str] | None = None
) -> TailModel:
    """Tail from a ``kind`` or ``kind:param`` token; ``line`` prefixes errors."""
    kind, colon, param = value.partition(":")
    kind = kind.strip().lower()
    if kind == "zero":
        if colon:
            raise SpecError(f"tail 'zero' takes no parameter, got {value!r}", line)
        return ZeroTail()
    if kind in _NUMERIC_TAILS:
        try:
            return _NUMERIC_TAILS[kind](float(param))
        except ValueError as exc:  # float() or the constructor's range check
            raise SpecError(f"bad parameter in {value!r}: {exc}", line) from None
    if kind == "cap":
        if not param:
            raise SpecError("tail cap needs a file path, e.g. cap:bounds.csv", line)
        try:
            return load_cap_table(param if cap_base is None else os.path.join(cap_base, param))
        except OSError as exc:
            raise SpecError(f"cannot read cap table {param!r}: {exc}", line) from None
    raise SpecError(f"unknown tail {value!r}", line)


def parse_spec(text: str, cap_base: str | os.PathLike[str] | None = None) -> SequenceSpec:
    """Parse a spec document: one ``key=value`` per line.

    Keys: ``family=<token>`` on its own, or exactly one of ``terms_raw`` /
    ``terms_lograw`` / ``terms_norm`` plus an optional ``tail=...`` (default
    ``zero``).  ``cap_base`` resolves relative cap-table paths.
    """
    family_token: str | None = None
    terms: tuple[str, list[float], int] | None = None
    tail: TailModel | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecError(f"expected key=value, got {line!r}", lineno)
        key = key.strip().lower()
        value = value.strip()
        if key == "family":
            if family_token is not None:
                raise SpecError("duplicate family line", lineno)
            family_token = value
        elif key in ("terms_raw", "terms_lograw", "terms_norm"):
            if terms is not None:
                raise SpecError("only one terms_* line is allowed", lineno)
            terms = (key.removeprefix("terms_"), _parse_number_list(value, lineno), lineno)
        elif key == "tail":
            if tail is not None:
                raise SpecError("duplicate tail line", lineno)
            tail = _parse_tail(value, lineno, cap_base)
        else:
            raise SpecError(f"unknown key {key!r}", lineno)

    if family_token is not None:
        if terms is not None or tail is not None:
            raise SpecError("family specs take no terms_* or tail lines")
        return make_family(family_token)
    if terms is None:
        raise SpecError("spec needs either a family line or a terms_* line")
    scale, numbers, lineno = terms
    try:
        return explicit(numbers, scale=scale, tail=tail)
    except ValueError as exc:
        raise SpecError(str(exc), lineno) from None

