"""Compare two sets of end-to-end benchmark results.

Run from the repository root::

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are directories (or single files) of the
``result-<workload>-<seed>-trace<0|1>.json`` documents ``run.py``
writes; typically BASE holds the parent commit's runs and NEW the
change's, made alternately seed by seed. One row is printed per
(workload, metric) with a verdict:

``improved``
    At least 10 pairs, the change wins at least 9 in 10 of all pairs
    run (ties count for neither side), and the medians differ by more
    than the base runs' interquartile range (the claim rule of the
    choosing-metrics guide).
``worse``
    The median got worse by more than the metric's bound from
    ``BENCHMARK.json`` while the spread is within the bound (or every
    new run is worse than every base run).
``unresolved``
    The spread is wider than the bound, or too few pairs to decide.
``unchanged``
    Everything else.

Runs pair up by workload and seed, in the order they started. A pair
whose two runs timed the host probe loop more than 10% apart (median
over each run) is listed as host drift. Its times are already scaled
to the reference host speed, so it stays in the pairs; the row says
the host, not the code, changed speed, and that a verdict resting on
such pairs deserves a rerun.

Deterministic values are compared seed by seed between runs of the
same number of units. The objective and the failure count are lower is
better; a differing decision digest is ``worse``; work counters have no
direction and read ``unchanged`` or ``changed``.

The exit code is 1 when an end-to-end metric, the objective, the
failure count or the digest is ``worse``; per-layer metrics and
counters are reported only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Host probe times further apart than this mark a pair as host drift.
DRIFT = 0.10
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Deterministic values where lower is better; any other differing
#: value is a counter, except the digest.
DIRECTED = ("objective_s", "failed")
DIGEST = "digest"


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def host_probe(document: dict) -> float:
    """The run's median host-probe time (see ``workloads.Meter``)."""
    return document["host"]["probe_median_s"]


def pair_up(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs of runs with the same seed, matched in start order."""
    by_seed: dict[int, tuple[list, list]] = {}
    for side, documents in enumerate((base, new)):
        for document in sorted(documents, key=lambda d: d["started"]):
            by_seed.setdefault(document["seed"], ([], []))[side].append(document)
    return [
        pair
        for seed in sorted(by_seed)
        for pair in zip(*by_seed[seed])
    ]


def drifted(pair: tuple[dict, dict]) -> bool:
    a, b = host_probe(pair[0]), host_probe(pair[1])
    return abs(a - b) / min(a, b) > DRIFT


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def timed_verdict(
    base: list[float],
    new: list[float],
    pairs: list[tuple[float, float]],
    lower: bool,
    bound: float | None,
) -> tuple[str, str]:
    """Verdict and win count for a measured (noisy) metric."""
    m0, m1 = statistics.median(base), statistics.median(new)

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(1 for b, n in pairs if better(n, b))
    losses = sum(1 for b, n in pairs if better(b, n))
    wins_text = f"{wins}/{len(pairs)}"
    gap_resolved = abs(m1 - m0) > iqr(base)
    if len(pairs) >= MIN_PAIRS and gap_resolved:
        if wins >= WIN_SHARE * len(pairs) and better(m1, m0):
            return "improved", wins_text
        if bound is None and losses >= WIN_SHARE * len(pairs):
            return "worse", wins_text
    if bound is None:
        return ("unchanged" if m0 == m1 else "unresolved"), wins_text
    worse_by = (m1 - m0) / m0 if lower else (m0 - m1) / m0
    spread = max(iqr(base) / abs(m0), iqr(new) / abs(m1)) if m0 and m1 else 0.0
    all_worse = all(better(b, n) for b in base for n in new)
    all_better = all(better(n, b) for b in base for n in new)
    if worse_by > bound:
        return ("worse" if spread <= bound or all_worse else "unresolved"), wins_text
    if spread > bound and not all_better:
        return "unresolved", wins_text
    return "unchanged", wins_text


def exact_verdict(name: str, pairs: list[tuple]) -> str:
    """Seed-by-seed comparison of the deterministic value *name*."""
    if not pairs:
        return "unresolved"
    differing = [(b, n) for b, n in pairs if b != n]
    if not differing:
        return "unchanged"
    if name == DIGEST:
        return "worse"  # the runs made different decisions
    if name not in DIRECTED:
        return "changed"
    if all(n < b for b, n in differing):
        return "improved"
    if all(n > b for b, n in differing):
        return "worse"
    return "unresolved"


def _median_text(values: list[float]) -> str:
    return f"{statistics.median(values):.6g}" if values else "-"


def compare(base: list[dict], new: list[dict], spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, base, new, change, bound, wins, verdict)``."""
    rows: list[tuple] = []
    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    layered = {entry["name"]: entry for entry in spec["per_layer"]}
    workloads = sorted({d["workload"] for d in base} & {d["workload"] for d in new})
    for workload in workloads:
        for trace, entries in ((0, bounded), (1, layered)):
            b_docs, n_docs = (
                [d for d in docs if (d["workload"], d["trace"]) == (workload, trace)]
                for docs in (base, new)
            )
            if not b_docs or not n_docs:
                continue
            pairs = pair_up(b_docs, n_docs)
            rows.extend(
                (
                    workload,
                    f"host drift (seed {b['seed']})",
                    f"{host_probe(b):.4g}s",
                    f"{host_probe(n):.4g}s",
                    "",
                    "",
                    "",
                    "drift",
                )
                for b, n in pairs
                if drifted((b, n))
            )
            for name, entry in entries.items():
                base_values = [d["metrics"][name]["value"] for d in b_docs]
                new_values = [d["metrics"][name]["value"] for d in n_docs]
                value_pairs = [
                    (b["metrics"][name]["value"], n["metrics"][name]["value"])
                    for b, n in pairs
                ]
                verdict, wins = timed_verdict(
                    base_values,
                    new_values,
                    value_pairs,
                    entry["better"] == "lower",
                    entry.get("bound"),
                )
                m0 = statistics.median(base_values)
                m1 = statistics.median(new_values)
                rows.append(
                    (
                        workload,
                        name,
                        _median_text(base_values),
                        _median_text(new_values),
                        f"{(m1 - m0) / m0:+.1%}" if m0 else "",
                        f"{entry['bound']:.0%}" if "bound" in entry else "",
                        wins,
                        verdict,
                    )
                )
            rows.extend(_exact_rows(workload, trace, pairs))
    return rows


def _exact_rows(workload: str, trace: int, pairs: list[tuple[dict, dict]]) -> list:
    """Rows for the deterministic values, compared seed by seed."""
    def fields(document: dict) -> dict:
        values = {
            "objective_s": document["objective_s"],
            DIGEST: document["digest"],
            "failed": document["failed"],
        }
        values.update(
            {f"counters.{key}": value for key, value in document["counters"].items()}
        )
        if trace:
            values.update(
                {
                    f"trace_counts.{key}": value
                    for key, value in document["trace_counts"].items()
                }
            )
        return values

    comparable = [
        (fields(b), fields(n)) for b, n in pairs if b["units"] == n["units"]
    ]
    names = sorted({key for b, n in comparable for key in b.keys() | n.keys()})
    rows = []
    for name in names:
        values = [(b.get(name), n.get(name)) for b, n in comparable]
        verdict = exact_verdict(name, values)
        if trace and verdict == "unchanged":
            continue  # keep traced output to the counts that moved
        shown = values[0] if values else ("-", "-")
        rows.append(
            (
                workload,
                name,
                _short(shown[0]),
                _short(shown[1]),
                "",
                "exact",
                f"{sum(b == n for b, n in values)}/{len(values)} equal",
                verdict,
            )
        )
    return rows


def _short(value) -> str:
    if isinstance(value, str):
        return value[:12]
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def failing(rows: list[tuple], spec: dict) -> list[tuple]:
    """The rows that make the comparison fail."""
    gated = {entry["name"] for entry in spec["end_to_end"]}
    gated.update(DIRECTED + (DIGEST,))
    return [row for row in rows if row[1] in gated and row[-1] == "worse"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of end-to-end benchmark results."
    )
    parser.add_argument("base", type=Path, help="base results (dir or file)")
    parser.add_argument("new", type=Path, help="new results (dir or file)")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load(args.base), load(args.new), spec)
    header = (
        "workload", "metric", "base", "new", "change", "bound", "pairs", "verdict"
    )
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(8)]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return 1 if failing(rows, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
