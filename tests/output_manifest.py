"""Hashes of every benchmark operation's output, to show that a change keeps them.

Usage, from the repository root::

    python3 tests/output_manifest.py            # write tests/output_manifest.json
    python3 tests/output_manifest.py --check    # compare this tree with it

For seeds 101-110 it runs the operation lists of ``bench/workloads.py`` once
each, untimed, and hashes each operation's output:

* ``families`` and ``inverse``: the ``repr`` of the result, or the type and
  message of the exception the call raised (a ``families`` spec is built
  inside the call, so a refused spec counts too);
* ``cli``: ``(status, stdout, stderr)`` of ``nestrad.cli.run``, with the
  directory that holds the spec files masked and the terminal 80 columns
  wide, so neither the host nor the temporary directory shows.

Each output keeps the first 8 hex digits of its sha256, so a changed output
goes unseen with probability 2**-32.  The manifest also records the work of
each workload's seed-101 list: its ``kappa_enclosure`` calls, the levels
passed to ``sqrt_nested_scaled`` and the fold's calls to ``exp``, counted
through ``nestrad.nested.math``.  ``--check`` names every changed operation,
per list, and every changed work count, and exits 1 if there is any.
The CLI's usage and error texts come from argparse, whose wording differs
between Python versions, so on a Python other than the one that wrote the
manifest ``--check`` compares only the ``families`` and ``inverse`` lists
and their work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
MANIFEST = TESTS / "output_manifest.json"
SEEDS = range(101, 111)
WORK_SEED = 101
MASK = "<specdir>"
_PYTHON = "%d.%d" % sys.version_info[:2]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py)

import nestrad  # noqa: E402
import nestrad.cli  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


def _tail(kind: str, param: float):
    if kind == "zero":
        return nestrad.ZeroTail()
    if kind == "constant_norm":
        return nestrad.ConstantNormalizedTail(param)
    if kind == "constant_raw":
        return nestrad.ConstantRawTail(param)
    return nestrad.OmegaTail(param)


def _library(op: tuple) -> str:
    if op[0] == "u_inverse":
        return _outcome(lambda: nestrad.u_inverse(op[1], op[2]))
    if op[0] == "sup":
        return _outcome(lambda: nestrad.sup_enclosure(nestrad.SupQuery(op[1], op[2])))
    if op[0] == "family":
        return _outcome(lambda: nestrad.kappa_limit(nestrad.make_family(op[1]), op[-1]))
    return _outcome(
        lambda: nestrad.kappa_limit(
            nestrad.explicit(op[2], scale=op[1], tail=_tail(op[3], op[4])), op[-1]
        )
    )


def _cli(ops: list[tuple]) -> list[str]:
    outputs = []
    with tempfile.TemporaryDirectory() as work:
        for _kind, argv, files in ops:
            for name, text in files:
                (Path(work) / name).write_text(text, encoding="utf-8")
            argv = [f"{work}/{a}" if i and argv[i - 1] == "--spec" else a for i, a in enumerate(argv)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = nestrad.cli.run(argv)
            outputs.append(repr((status, out.getvalue(), err.getvalue())).replace(work, MASK))
    return outputs


@contextlib.contextmanager
def _counted(work: dict):
    """Count ``kappa_enclosure`` calls and fold levels through every module that binds them,
    and the fold's ``exp`` calls through ``nestrad.nested.math``."""
    enclose, fold = nestrad.kappa.kappa_enclosure, nestrad.kappa.sqrt_nested_scaled

    def counted_enclose(*args):
        work["kappa_enclosure calls"] += 1
        return enclose(*args)

    def counted_fold(ln_alphas, *seeds):
        work["fold levels"] += len(ln_alphas)
        return fold(ln_alphas, *seeds)

    def counted_exp(x):
        work["fold exp calls"] += 1
        return exp(x)

    exp = nestrad.nested.math.exp
    counted_math = types.SimpleNamespace(**vars(nestrad.nested.math))
    counted_math.exp = counted_exp
    patches = [(nestrad.nested, "math", counted_math)]
    for module in (nestrad.kappa, nestrad.ufunc, nestrad.cli):
        patches += [(module, name, counted_enclose if value is enclose else counted_fold)
                    for name, value in vars(module).items() if value is enclose or value is fold]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, value in patches:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def outputs(workload: str, seed: int) -> list[str]:
    """The output of every operation of one seed's list, in order."""
    ops = workloads.GENERATORS[workload](seed)
    if workload == "cli":
        return _cli(ops)
    return [_library(op) for op in ops]


def build() -> dict:
    os.environ["COLUMNS"] = "80"  # the CLI's usage text follows the terminal width
    lists, work = {}, {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            name = f"{workload}:{seed}"
            if seed == WORK_SEED:
                work[name] = dict.fromkeys(("kappa_enclosure calls", "fold levels", "fold exp calls"), 0)
                with _counted(work[name]):
                    found = outputs(workload, seed)
            else:
                found = outputs(workload, seed)
            lists[name] = "".join(_digest(text) for text in found)
    return {"python": _PYTHON, "work": work, "lists": lists}


def differences(expected: dict, found: dict) -> list[str]:
    """One line per changed list, operation and work count."""
    lines = []
    for name, digests in expected["lists"].items():
        now = found["lists"].get(name, "")
        workload, seed = name.split(":")
        if workload == "cli" and expected["python"] != found["python"]:
            continue
        ops = workloads.GENERATORS[workload](int(seed))
        changed = [
            i for i in range(len(ops)) if digests[8 * i:8 * i + 8] != now[8 * i:8 * i + 8]
        ]
        if changed:
            lines.append(f"{name}: {len(changed)} of {len(ops)} operations changed")
            lines.extend(f"  #{i} {ops[i]!r:.160}" for i in changed)
    for name, counts in expected["work"].items():
        if name.startswith("cli:") and expected["python"] != found["python"]:
            continue
        for key, count in counts.items():
            now = found["work"][name][key]
            if now != count:
                lines.append(f"{name}: {key} {count} -> {now}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the manifest instead of writing it")
    args = parser.parse_args(argv)
    found = build()
    if not args.check:
        MANIFEST.write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")
        return 0
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if expected["python"] != found["python"]:
        print(f"the cli lists were written by Python {expected['python']}: not compared")
    lines = differences(expected, found)
    print("\n".join(lines) if lines else "every output and work count matches the manifest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
