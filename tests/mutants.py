"""Mutation gate: each unsound mutant of ``src/`` must fail the containment tests.

A pinned document fails on any change, sound or not, so only the mpmath
containment tests, ``test_soundness.py`` and ``test_spec_oracle.py``, can
tell a lost certificate from a harmless change.  Each mutant below breaks
one claim that a certified enclosure rests on.  Run from anywhere::

    python tests/mutants.py

For each mutant this copies ``src/`` to a temporary directory, replaces the
mutant's text there, and runs

    python -m pytest tests/test_soundness.py tests/test_spec_oracle.py
        -x -q -p no:cacheprovider --hypothesis-seed 0

against the copy, from the temporary directory, so that no hypothesis
database carries failures from one mutant to the next.  A mutant is killed
when that run fails; the runner prints the test that killed it, and exits 1
if any mutant survives.  pytest does not collect this file;
``tests/test_mutants.py`` checks in tier-1 that each mutant's text occurs
exactly once in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CONTAINMENT = ("tests/test_soundness.py", "tests/test_spec_oracle.py")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str
    replacement: str
    claim: str


# _analytic_gap repeats the boost line, so these texts take the comment above
# kappa_enclosure's copy, which occurs once
_BOOST_COMMENT = "    # one step up from the rounded sum covers the exact boost; a zero cap stays -inf\n"
_BOOST = _BOOST_COMMENT + (
    "    ln_hi = math.nextafter(ln_cap + math.ldexp(LN_PHI, 1 - depth), _INF) if ln_cap > -_INF else ln_cap\n"
)

MUTANTS = (
    Mutant(
        "boost-step",
        "src/nestrad/kappa.py",
        _BOOST,
        _BOOST_COMMENT + "    ln_hi = ln_cap + math.ldexp(LN_PHI, 1 - depth) if ln_cap > -_INF else ln_cap\n",
        "the golden-boosted cap is rounded up past the exact boost",
    ),
    Mutant(
        "boost-halved",
        "src/nestrad/kappa.py",
        _BOOST,
        _BOOST.replace("math.ldexp(LN_PHI, 1 - depth)", "math.ldexp(LN_PHI, -depth)"),
        "the cap at depth n is boosted by 2**(1 - n) * ln(phi)",
    ),
    Mutant(
        "no-pad",
        "src/nestrad/kappa.py",
        "    return 16.0 * depth * math.ulp(magnitude)\n",
        "    return 0.0\n",
        "the pad covers the fold's rounding",
    ),
    Mutant(
        "fixed-point-bias",
        "src/nestrad/seqspec.py",
        "        self._set__ln_fixed_point(self, math.log(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * raw))))\n",
        "        self._set__ln_fixed_point(self, math.log(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * raw))) * (1 + 2**-30))\n",
        "a constant raw tail's lower seed is at most its value",
    ),
    Mutant(
        "raw-log-bias",
        "src/nestrad/seqspec.py",
        '    "raw": lambda raw, k: math.ldexp(_ln(raw), -k),\n',
        '    "raw": lambda raw, k: math.ldexp(_ln(raw) * (1 + 2**-40), -k),\n',
        "a raw coefficient's stored log lies within what the pads cover",
    ),
    Mutant(
        "cap-row-lower",
        "src/nestrad/seqspec.py",
        "            table[n] = (math.nextafter(math.nextafter(_ln(lower), _NEG_INF), _NEG_INF), ln_cap)\n",
        "            table[n] = (_ln(lower), ln_cap)\n",
        "a cap row's stored lower-seed log is at most the row's exact log",
    ),
)


def killer(mutant: Mutant) -> str | None:
    """The test that fails first with the mutant applied to a copy of ``src/``, or None if none fails."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.file
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: its text does not occur exactly once in {mutant.file}")
        target.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *(str(ROOT / test) for test in CONTAINMENT),
             "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0"],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
            capture_output=True, text=True,
        )
        if result.returncode == 0:
            return None
        failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
        if result.returncode != 1 or failed is None:  # an error, not a failing test
            raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
        path, _, test = failed.group(1).partition("::")  # the path is relative to tmp
        return f"{os.path.relpath(os.path.join(tmp, path), ROOT)}::{test}"


def main() -> int:
    survivors = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        test = killer(mutant)
        survivors += test is None
        verdict = "SURVIVED" if test is None else f"killed by {test}"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - began:.1f} s); breaks: {mutant.claim}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
