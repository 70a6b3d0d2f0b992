"""Self-test of the benchmark: seeded generators, repeatable counters, output.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
The runs here use shortened operation lists so the whole file takes seconds.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"families": 30, "inverse": 6, "cli": 40}


@pytest.fixture
def small_lists(monkeypatch):
    for name, count in SMALL.items():
        monkeypatch.setitem(
            workloads.GENERATORS, name, functools.partial(getattr(workloads, name), count=count)
        )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    generate = workloads.GENERATORS[workload]
    assert generate(11) == generate(11)
    assert generate(11) != generate(12)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_across_runs_of_one_seed(workload, small_lists):
    first = run.per_layer(run.run(workload, 5, 0.0, trace=True))
    second = run.per_layer(run.run(workload, 5, 0.0, trace=True))
    assert first[2] and second[2], "counts differed between traced passes of one run"
    for key in tracer.COUNT_METRICS:
        assert first[0][key] == second[0][key], key


def test_tracer_restores_every_binding(small_lists):
    nestrad = run.load_library()
    before = {name: getattr(nestrad, name) for name in ("kappa_limit", "u_inverse", "sup_enclosure")}
    method = nestrad.SequenceSpec.terms_lograw
    with tracer.Tracer() as t:
        nestrad.kappa_limit(nestrad.golden(), 1e-6)
        assert nestrad.kappa_limit is not before["kappa_limit"]
    assert {name: getattr(nestrad, name) for name in before} == before
    assert nestrad.SequenceSpec.terms_lograw is method
    names = {span[0] for span in t.take()}
    assert {"kappa.limit", "kappa.enclosure", "nested.fold", "seqspec.terms"} <= names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, small_lists, capsys):
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        printed = "\n".join(lines[:-1])
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "fail_ratio", "converged_ratio", "setup_s"):
            assert name in printed


def test_layer_expectations_hold_on_small_lists(small_lists):
    def values(workload):
        metrics = run.per_layer(run.run(workload, 3, 0.0, trace=True))[0]
        return {name: value for name, (value, _unit) in metrics.items()}

    families, inverse = values("families"), values("inverse")
    assert families["cli.self_s"] == 0 and inverse["cli.self_s"] == 0
    assert families["ufunc.u_eval_calls"] == 0
    assert inverse["ufunc.u_evals_per_inverse"] > 1
    assert families["kappa.enclosures_per_limit"] > 1


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    assert run.main(["--workload", "families", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out
