"""Closed-loop benchmark of nestrad: one caller, one thread, one process.

Usage, from the repository root::

    python3 bench/run.py --workload families --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory.  A run

1. measures ``setup_s``: the median time of ``import nestrad`` plus
   ``import nestrad.cli`` over several fresh interpreters (interpreter
   start-up excluded);
2. builds the workload's seeded operation list (see ``workloads.py``) and
   runs it once untimed as warm-up; that pass's outputs are the canonical
   ones;
3. repeats the list in timed passes until ``--seconds`` have passed, each
   call starting after the previous one returns.  With ``--trace 1`` every
   other pass runs under the span tracer (``tracer.py``);
4. checks the canonical outputs against mpmath references
   (``reference.py``) outside every timing, and requires every timed pass
   to reproduce them exactly.

Every time is calibrated to a reference host speed (``calibration.py``) and
every timed figure is a median over passes.  With ``--trace 0`` the result
line carries the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Wrong answers, escaped exceptions, exit codes outside {0, 2, 3} and refused
valid requests are failures: they count in ``failed`` and lower
``ok_ratio`` (``fail_ratio`` is printed beside it), and none is dropped.
``attempted`` and ``failed`` count the seed's distinct operations, each once,
so they repeat exactly for a seed whatever the host's speed.
``correct`` is false when the benchmark cannot vouch for its own figures:
an output changed between passes, or a work counter did not repeat between
traced passes.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import calibration
import reference
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"

SETUP_RUNS = 9
# Times the imports cold, then calibrates in the same process.
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import nestrad, nestrad.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "import calibration\n"
    "print(repr(elapsed), *(repr(calibration.unit()) for _ in range(3)))\n"
)
SEGMENT_S = 0.05  # calls between two calibration units
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999, 0.9999)
MIN_PASSES = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def load_library():
    """Import nestrad from this checkout's ``src/`` and nowhere else."""
    if not (SOURCE / "nestrad" / "__init__.py").is_file():
        raise BenchError(f"no nestrad sources under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import nestrad
    import nestrad.cli

    if Path(nestrad.__file__).resolve().parent != (SOURCE / "nestrad").resolve():
        raise BenchError(f"imported nestrad from {nestrad.__file__}, not from {SOURCE}")
    return nestrad


def measure_setup(runs: int = SETUP_RUNS) -> list[tuple[float, float]]:
    """(calibrated, wall) import times of the package and its CLI.

    Each run is a fresh interpreter; the first may compile bytecode and is
    discarded.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SOURCE), str(BENCH))))
    times = []
    for attempt in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"fresh interpreter could not import nestrad: {done.stderr.strip()}")
        if attempt:
            wall, *units = (float(cell) for cell in done.stdout.split())
            times.append((wall * calibration.factor(statistics.median(units)), wall))
    return times


# ---------------------------------------------------------------------------
# operations


def library_calls(nestrad, ops: list[tuple]) -> list:
    """Zero-argument calls into the public API, one per operation.

    Each call looks its function up on the package at call time, so the
    tracer's wrappers are seen.
    """
    calls = []
    for op in ops:
        if op[0] == "u_inverse":
            calls.append(lambda y=op[1], tol=op[2]: nestrad.u_inverse(y, tol))
        elif op[0] == "sup":
            calls.append(lambda m_h=op[1], eps=op[2]: nestrad.sup_enclosure(nestrad.SupQuery(m_h, eps)))
        else:
            if op[0] == "family":
                spec = nestrad.make_family(op[1])
            else:
                spec = nestrad.explicit(op[2], scale=op[1], tail=_tail(nestrad, op[3], op[4]))
            calls.append(lambda spec=spec, tol=op[-1]: nestrad.kappa_limit(spec, tol))
    return calls


def _tail(nestrad, kind: str, param: float):
    if kind == "zero":
        return nestrad.ZeroTail()
    if kind == "constant_norm":
        return nestrad.ConstantNormalizedTail(param)
    if kind == "constant_raw":
        return nestrad.ConstantRawTail(param)
    return nestrad.OmegaTail(param)


def cli_calls(nestrad, ops: list[tuple], workdir: Path) -> list:
    """Calls of ``cli.run`` with captured output, spec files under ``workdir``."""
    calls = []
    for _kind, argv, files in ops:
        for name, text in files:
            (workdir / name).write_text(text, encoding="utf-8")
        argv = [str(workdir / a) if i and argv[i - 1] == "--spec" else a for i, a in enumerate(argv)]

        def call(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = nestrad.cli.run(argv)
            return status, out.getvalue()

        calls.append(call)
    return calls


class Pass(NamedTuple):
    seconds: float  # calibrated time inside the calls
    latencies: list[float]  # calibrated, one per call
    outcomes: list
    wall_seconds: float  # uncalibrated time inside the calls
    speed: float  # mean calibration factor of the pass


def run_pass(calls: list, tracer: tracing.Tracer | None = None) -> Pass:
    """One closed-loop pass over the calls, calibrated segment by segment.

    A calibration unit runs before the first call, after the last, and
    whenever SEGMENT_S seconds of calls have passed.  Each call's latency
    is rescaled by the two units that bracket its segment (see
    ``calibration.py``).
    """
    latencies, outcomes = [], []
    marks = [(0, calibration.unit())]
    segment_start = perf_counter()
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.request = index
        t0 = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # an escaped exception is a failed operation
            outcome = exc
        t1 = perf_counter()
        latencies.append(t1 - t0)
        outcomes.append(outcome)
        if t1 - segment_start >= SEGMENT_S or index + 1 == len(calls):
            marks.append((index + 1, calibration.unit()))
            segment_start = perf_counter()
    scaled = []
    factors = []
    for (first, before), (last, after) in zip(marks, marks[1:]):
        factor = calibration.factor(before, after)
        factors.append(factor)
        scaled.extend(latency * factor for latency in latencies[first:last])
    return Pass(sum(scaled), scaled, outcomes, sum(latencies), statistics.fmean(factors))


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if samples - math.ceil(q * samples) >= 10:
            chosen = q
    return chosen


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# checks


def check_outcomes(workload: str, ops: list[tuple], outcomes: list) -> tuple[list, list]:
    """Failure class (or None) and converged flag (or None) per operation."""
    spec_texts = {name: text for op in ops if workload == "cli" for name, text in op[2]}
    check = reference.CHECKS[workload]
    failures = [check(op, outcome, spec_texts) for op, outcome in zip(ops, outcomes)]
    converged = [reference.converged(workload, op, outcome) for op, outcome in zip(ops, outcomes)]
    return failures, converged


# ---------------------------------------------------------------------------
# the run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up timing, warm-up, timed loop and checks of one workload."""
    nestrad = load_library()
    setup_times = measure_setup()
    ops = workloads.GENERATORS[workload](seed)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        if workload == "cli":
            calls = cli_calls(nestrad, ops, Path(work))
        else:
            calls = library_calls(nestrad, ops)
        canonical = run_pass(calls).outcomes  # warm-up
        loop = timed_loop(calls, canonical, seconds, trace)
    failures, converged = check_outcomes(workload, ops, canonical)
    ok = [failure is None for failure in failures]
    # Each distinct operation counts once: it passes only if its output is
    # right and every timed pass reproduced it, so both counts depend on the
    # seed alone and not on how many passes fit into ``seconds``.
    repeated = [all(column) for column in zip(*loop["matched"])]
    flagged = [c for c in converged if c is not None]
    return {
        "ops": len(ops),
        "loop": loop,
        "setup_times": setup_times,
        "failures": failures,
        "ok": ok,
        "attempted": len(ops),
        "passed": sum(1 for good, same in zip(ok, repeated) if good and same),
        "converged_ratio": sum(flagged) / len(flagged) if flagged else 1.0,
        "deterministic": all(all(m) for m in loop["matched"]),
    }


def timed_loop(calls: list, canonical: list, seconds: float, trace: bool) -> dict:
    """Timed passes for ``seconds``; with tracing, untraced and traced alternate."""
    untraced, traced, layers, matched = [], [], [], []
    tracer = tracing.Tracer() if trace else None
    started = perf_counter()
    while True:
        enough = len(untraced) + len(traced) >= MIN_PASSES and (not trace or len(traced) >= 2)
        if enough and perf_counter() - started >= seconds:
            break
        if trace and len(traced) < len(untraced):
            with tracer:
                done = run_pass(calls, tracer)
            traced.append(done)
            layers.append(tracing.layer_metrics(tracer.take(), done.wall_seconds, done.speed))
        else:
            done = run_pass(calls)
            untraced.append(done)
        matched.append([_same(a, b) for a, b in zip(done.outcomes, canonical)])
    return {"untraced": untraced, "traced": traced, "layers": layers, "matched": matched}


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    passes = report["loop"]["untraced"]
    n = report["ops"]
    good = sum(report["ok"])
    q = tail_percentile(n)
    # Each operation's median over passes, so the tail is set by slow inputs
    # rather than by a host stall landing on one call of one pass.
    typical = [statistics.median(column) for column in zip(*(p.latencies for p in passes))]
    ok_ratio = report["passed"] / report["attempted"]
    setup = statistics.median(cal for cal, _ in report["setup_times"])
    metrics = {
        "ops_per_s": (statistics.median(good / p.seconds for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(statistics.median(p.latencies) * 1e3 for p in passes), "ms"),
        "latency_tail_ms": (percentile(typical, q) * 1e3, "ms"),
        "ok_ratio": (ok_ratio, "ratio"),
        "converged_ratio": (report["converged_ratio"], "ratio"),
        "setup_s": (setup, "s"),
    }
    wall_rate = statistics.median(good / p.wall_seconds for p in passes)
    wall_setup = statistics.median(w for _, w in report["setup_times"])
    speed = statistics.median(p.speed for p in passes)
    notes = [
        f"times calibrated to the reference host speed; this host ran at {speed:.3f} of it",
        f"ops_per_s        {metrics['ops_per_s'][0]:.6g} 1/s (wall {wall_rate:.6g}; "
        f"median of {len(passes)} passes of {n} ops)",
        f"latency_p50_ms   {metrics['latency_p50_ms'][0]:.6g} ms",
        f"latency_tail_ms  {metrics['latency_tail_ms'][0]:.6g} ms "
        f"(p{q * 100:g} of {n} per-op medians over passes, {n - math.ceil(q * n)} beyond it)",
        f"fail_ratio       {1.0 - ok_ratio:.6g} ratio "
        f"({report['attempted'] - report['passed']} failed of {report['attempted']} distinct ops)",
        f"ok_ratio         {ok_ratio:.6g} ratio",
        f"converged_ratio  {report['converged_ratio']:.6g} ratio",
        f"setup_s          {setup:.6g} s (wall {wall_setup:.6g}; "
        f"median of {len(report['setup_times'])} fresh interpreters)",
    ]
    return metrics, notes


PER_LAYER_UNITS = {
    "nested.fold_calls": "count",
    "nested.fold_levels": "count",
    "nested.fold_self_s": "s",
    "nested.fold_ns_per_level": "ns",
    "nested.nested_eval_calls": "count",
    "nested.nested_eval_self_s": "s",
    "seqspec.terms_generated": "count",
    "seqspec.terms_self_s": "s",
    "seqspec.terms_ns_per_term": "ns",
    "seqspec.tail_bounds_calls": "count",
    "seqspec.tail_bounds_self_s": "s",
    "seqspec.parse_calls": "count",
    "seqspec.parse_self_s": "s",
    "kappa.enclosure_calls": "count",
    "kappa.enclosure_self_s": "s",
    "kappa.limit_calls": "count",
    "kappa.limit_self_s": "s",
    "kappa.enclosures_per_limit": "count/call",
    "kappa.depth_mean": "depth",
    "ufunc.u_eval_calls": "count",
    "ufunc.u_evals_per_inverse": "count/call",
    "ufunc.self_s": "s",
    "caps.calls": "count",
    "caps.enclosures_per_call": "count/call",
    "caps.self_s": "s",
    "contfn.cf_calls": "count",
    "contfn.bound_iterations": "count",
    "contfn.self_s": "s",
    "cli.run_calls": "count",
    "cli.self_s": "s",
    "cli.self_ms_per_run": "ms",
    "cli.exit_0": "count",
    "cli.exit_2": "count",
    "cli.exit_3": "count",
    "cli.exit_other": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer(report: dict) -> tuple[dict, list[str], bool]:
    """Per-layer metrics, notes, and whether every count repeated."""
    loop = report["loop"]
    layers = loop["layers"]
    repeated = all(
        all(p[key] == layers[0][key] for key in tracing.COUNT_METRICS) for p in layers
    )
    medians = tracing.median_metrics(layers)
    good = sum(report["ok"])
    traced_rate = statistics.median(good / p.seconds for p in loop["traced"])
    untraced_rate = statistics.median(good / p.seconds for p in loop["untraced"])
    medians["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        value = layers[0][key] if key in tracing.COUNT_METRICS else medians[key]
        metrics[key] = (value, unit)
    shares = ", ".join(
        f"{layer} {medians['share.' + layer]:.1%}" for layer in (*tracing.LAYERS, "bench")
    )
    notes = [f"{key:28s} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    notes.append(f"self-time shares of the time inside calls: {shares}")
    notes.append(f"counts repeated across {len(layers)} traced passes: {repeated}")
    return metrics, notes, repeated


def failure_notes(report: dict) -> list[str]:
    classes = collections.Counter(f for f in report["failures"] if f is not None)
    if not classes:
        return [f"failures: none of {report['ops']} distinct ops"]
    listed = ", ".join(f"{name} x{count}" for name, count in sorted(classes.items()))
    return [f"failures over {report['ops']} distinct ops: {listed}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    loop = report["loop"]
    print(
        f"workload {args.workload} seed {args.seed}: {len(loop['untraced'])} untraced and "
        f"{len(loop['traced'])} traced passes of {report['ops']} ops"
    )
    correct = report["deterministic"]
    if args.trace:
        metrics, notes, repeated = per_layer(report)
        correct = correct and repeated
    else:
        metrics, notes = end_to_end(report)
    for line in notes + failure_notes(report):
        print(line)
    if not report["deterministic"]:
        print("outputs changed between passes")
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["attempted"] - report["passed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
