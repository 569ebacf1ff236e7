"""Self-tests of the end-to-end benchmark, run explicitly::

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs its shortest run, one unit (``--seconds 0``),
three times through the real command (once untraced, twice traced),
and the tests check what the benchmark promises: the metrics
``BENCHMARK.json`` names, counters and decision digests that repeat
exactly, identical decisions with tracing on and off, every wrapped
callable restored, trace coverage of at least 0.95, and tracer counts
that agree with the program's own counters. The comparison rules of
``compare.py`` are tested on synthetic results.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run.py",
            "--workload",
            workload,
            "--seed",
            str(SEED),
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--out",
            str(out),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    process = _run(workload, trace, out)
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.strip().splitlines()[-1])
    document = json.loads(
        (out / f"result-{workload}-{SEED}-trace{trace}.json").read_text()
    )
    return line, document


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return (
        request.param,
        _result(request.param, 0, out / "untraced"),
        _result(request.param, 1, out / "traced-a"),
        _result(request.param, 1, out / "traced-b"),
    )


def _check_metrics(line: dict, entries: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])


def test_metrics_match_the_spec(runs):
    _, (untraced, _), (traced, _), _ = runs
    _check_metrics(untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    _check_metrics(traced, SPEC["per_layer"])


def test_deterministic_values_repeat_exactly(runs):
    _, (_, first), (_, second), (_, third) = runs

    def exact(document):
        keys = ("units", "digest", "objective_s", "counters")
        return {key: document[key] for key in keys}

    assert exact(first) == exact(second) == exact(third)
    assert second["trace_counts"] == third["trace_counts"]


def test_tracing_keeps_decisions(runs):
    _, (_, untraced), (_, traced), _ = runs
    assert traced["traced_digest"] == traced["digest"] == untraced["digest"]


def test_wrapped_callables_restored(runs):
    _, _, (_, traced), _ = runs
    assert traced["wrapped_restored"] is True


def test_trace_coverage(runs):
    _, _, (line, _), _ = runs
    assert line["metrics"]["trace.coverage"]["value"] >= 0.95
    assert line["metrics"]["trace.overhead_frac"]["value"] > -1.0


def test_tracer_counts_match_program_counters(runs):
    """Over the same units, the tracer counts what the program counts."""
    _, _, (_, document), _ = runs
    counters = document["counters"]
    traced = document["trace_counts"]
    if "dijkstra_runs" in counters:  # fleet workloads
        assert traced.get("router_dijkstra_runs", 0) == counters["dijkstra_runs"]
        assert traced.get("controller_evaluations", 0) == counters["evaluations"]
    else:
        assert traced["parallel.api:deploy_parallel"] == counters["deploys"]


def test_fails_without_the_program(tmp_path):
    """In a copy holding only the benchmark, the command fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    process = _run("surge", 0, tmp_path / "out", cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()


# ----------------------------------------------------------------------
# compare.py rules, on synthetic values
# ----------------------------------------------------------------------
def test_claim_needs_ten_pairs_and_nine_wins():
    base = [100.0 + i for i in range(10)]
    new = [80.0 + i for i in range(10)]
    pairs = list(zip(base, new))
    assert compare.timed_verdict(base, new, pairs, True, 0.1)[0] == "improved"
    assert compare.timed_verdict(base, new, pairs[:9], True, 0.1)[0] == "unchanged"
    mixed = pairs[:8] + [(100.0, 120.0), (101.0, 121.0)]
    assert compare.timed_verdict(base, new, mixed, True, 0.1)[0] == "unchanged"


def test_worse_beyond_bound_and_unresolved_when_noisy():
    base = [100.0, 101.0, 99.0, 100.5, 100.2]
    slow = [115.0, 116.0, 114.0, 115.5, 115.2]
    assert compare.timed_verdict(base, slow, [], True, 0.1)[0] == "worse"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.timed_verdict(base, noisy, [], True, 0.1)[0] == "unresolved"
    assert compare.timed_verdict(base, base, [], True, 0.1)[0] == "unchanged"


def test_exact_values():
    assert compare.exact_verdict("objective_s", [(3, 3), (5, 5)]) == "unchanged"
    assert compare.exact_verdict("objective_s", [(3, 2), (5, 5)]) == "improved"
    assert compare.exact_verdict("failed", [(0, 1)]) == "worse"
    assert compare.exact_verdict("digest", [("ab", "cd")]) == "worse"
    # counters have no direction: more cache hits is not a regression
    assert compare.exact_verdict("counters.router_hits", [(3, 4)]) == "changed"
    assert compare.exact_verdict("counters.dijkstra_runs", [(4, 3)]) == "changed"


def _document(seed, op_ms, probe_s, hits=10, digest="d"):
    metrics = {
        entry["name"]: {"value": 1.0, "unit": entry["unit"]}
        for entry in SPEC["end_to_end"]
    }
    metrics["op_p50_ms"]["value"] = op_ms
    return {
        "workload": "surge",
        "trace": 0,
        "seed": seed,
        "started": float(seed),
        "units": 2,
        "metrics": metrics,
        "objective_s": 1.5,
        "digest": digest,
        "failed": 0,
        "counters": {"router_hits": hits},
        "host": {"probe_median_s": probe_s},
    }


def _row(rows, metric):
    (row,) = [row for row in rows if row[1] == metric]
    return row


def test_drifted_pairs_are_listed_and_still_counted():
    base = [_document(seed, 10.0 + seed * 0.01, 1e-3) for seed in range(10)]
    # the change wins 8 of 10 pairs; the two it loses ran on a slow host
    new = [_document(seed, 8.0 + seed * 0.01, 1e-3) for seed in range(8)] + [
        _document(seed, 10.5, 1.3e-3) for seed in (8, 9)
    ]
    rows = compare.compare(base, new, SPEC)
    assert [row[1] for row in rows if row[-1] == "drift"] == [
        "host drift (seed 8)",
        "host drift (seed 9)",
    ]
    wins, verdict = _row(rows, "op_p50_ms")[-2:]
    assert wins == "8/10" and verdict != "improved"
    assert compare.drifted((base[0], new[9]))
    assert not compare.drifted((base[0], new[0]))


def test_only_end_to_end_and_decisions_gate():
    base = [_document(seed, 10.0, 1e-3) for seed in range(3)]
    more_hits = [_document(seed, 10.0, 1e-3, hits=20) for seed in range(3)]
    rows = compare.compare(base, more_hits, SPEC)
    assert _row(rows, "counters.router_hits")[-1] == "changed"
    assert not compare.failing(rows, SPEC)
    other = [_document(seed, 10.0, 1e-3, digest="e") for seed in range(3)]
    assert compare.failing(compare.compare(base, other, SPEC), SPEC)
    slow = [_document(seed, 12.0, 1e-3) for seed in range(3)]
    failing = compare.failing(compare.compare(base, slow, SPEC), SPEC)
    assert [row[1] for row in failing] == ["op_p50_ms"]
