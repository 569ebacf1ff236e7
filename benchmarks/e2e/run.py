"""End-to-end benchmark: fleet replays and one-shot deploys.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload surge --seed 1 --seconds 10 --trace 0

One process, one thread, one client in a closed loop: every event or
deploy is issued only after the previous one returned. The inputs are
generated from ``--seed`` (see :mod:`workloads`). ``--seconds`` sets
how many units the run processes: as many as take that long on the
reference host, times the workload's ``length``, so the run's work
depends on its seed and length only, never on how fast the host or the
program is. Every unit goes through the correctness oracle of
:mod:`check`.

Times are scaled to the quiet reference host by the probe that
:class:`workloads.Meter` interleaves with the operations; the raw
times are kept in the result file.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half
as many units untraced, replays exactly those units under the span
tracer of :mod:`tracing`, reports the per-layer metrics, and checks
that both passes made the same decisions. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, the full result -- host and
noise record, raw times, the run's decision digest, objective and
counters -- goes to ``<out>/result-<workload>-<seed>-trace<0|1>.json``,
and traced runs write their spans to ``<out>/trace-<workload>-<seed>.jsonl``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer
from workloads import REFERENCE_PROBE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up (a fresh import plus building unit 0) is timed this many
#: times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9

#: What ``setup_s`` imports: the package, plus the layers the workloads
#: drive that ``import repro`` alone leaves out.
SETUP_MODULES = ("repro", "repro.service", "repro.core.batch")

#: Thread-pool sizes pinned to one thread before NumPy loads.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ----------------------------------------------------------------------
# host and noise record
# ----------------------------------------------------------------------
def _cpu_ticks() -> dict[str, int] | None:
    """Total and steal jiffies from ``/proc/stat`` (None off Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    values = [int(value) for value in fields[1:9]]
    return {"total": sum(values), "steal": values[7]}


def host_sample() -> dict:
    """Load average and CPU/steal ticks, right now."""
    return {"loadavg": list(os.getloadavg()), "cpu_ticks": _cpu_ticks()}


def host_record(before: dict, after: dict, probes: list[float]) -> dict:
    """Versions, load and steal around the run, and the host probe's speed.

    ``probe_median_s`` -- the median time of the fixed calibration loop
    over every probe of the run -- is what ``compare.py`` uses to tell
    host drift from a code change.
    """
    import networkx
    import numpy

    record = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "before": before,
        "after": after,
        "probe_median_s": statistics.median(probes),
        "reference_probe_s": REFERENCE_PROBE_S,
    }
    ticks = before["cpu_ticks"], after["cpu_ticks"]
    if None not in ticks and ticks[1]["total"] > ticks[0]["total"]:
        record["steal_frac"] = (ticks[1]["steal"] - ticks[0]["steal"]) / (
            ticks[1]["total"] - ticks[0]["total"]
        )
    return record


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def import_repro() -> None:
    """Import the package from a clean slate."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    for name in SETUP_MODULES:
        importlib.import_module(name)


def measure_setup(workload, seed: int, workdir: Path) -> tuple[list, list]:
    """Time a fresh import plus building unit 0, :data:`SETUP_REPEATS` times.

    Input generation is excluded. Returns the raw and the scaled
    samples; each is scaled by the host probes taken right before and
    after it. The last import is the one the rest of the run uses.
    """
    def host_speed() -> float:
        return statistics.median(probe() for _ in range(5))

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = host_speed()
        start = time.perf_counter()
        import_repro()
        elapsed = time.perf_counter() - start
        unit = workload.make(seed)
        start = time.perf_counter()
        workload.start(unit, workdir)
        elapsed += time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REFERENCE_PROBE_S / (before + host_speed()))
    return raw, scaled


def run_units(
    workload,
    seed: int,
    workdir: Path,
    count: int,
    tracer: Tracer | None = None,
) -> tuple[list, dict]:
    """Run the units of instance seeds ``seed .. seed+count-1``.

    Returns their results and, with a *tracer*, its counts over the
    units' loops. The tracer records spans only while a unit's loop
    (or the workload's ``close``) runs.
    """

    def traced(step, *args):
        if tracer is not None:
            tracer.active = True
        try:
            return step(*args)
        finally:
            if tracer is not None:
                tracer.active = False

    results = []
    for instance in range(seed, seed + count):
        unit = workload.make(instance)
        session = workload.start(unit, workdir)
        result = traced(workload.run, unit, session)
        workload.finish(unit, session, result)
        results.append(result)
    counts = tracer.totals() if tracer is not None else {}
    if workload.close is not None:
        traced(workload.close, session, result)
    return results, counts


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(results) -> str:
    sha = hashlib.sha256()
    for result in results:
        sha.update(result.decisions.encode())
    return sha.hexdigest()


def timings(workload, results, setup: list[float], scaled: bool) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json``, scaled or raw."""
    latencies: list[float] = []
    loop_s = 0.0
    for result in results:
        meter = result.meter
        if scaled:
            unit_latencies, unit_loop = meter.scaled()
        else:
            unit_latencies = [end - start for start, end in meter.ops]
            unit_loop = meter.loop_s
        latencies += unit_latencies
        loop_s += unit_loop
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / loop_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, workload.tail) * 1e3, "ms"),
    }


def per_layer(tracer: Tracer, traced: list, untraced: list) -> dict:
    """The per-layer metrics of ``BENCHMARK.json``, by name."""
    t = tracer

    def count(name: str) -> float:
        return t.counters.get(name, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def scaled_loop(results) -> float:
        return sum(result.meter.scaled()[1] for result in results)

    cost_hits = sum(r.counters.get("cost_model_hits", 0) for r in traced)
    cost_misses = sum(r.counters.get("cost_model_misses", 0) for r in traced)
    searched = count("search_accepted") + count("search_rejected")
    routing = "network.routing"
    return {
        "network.routing.self_s": (t.self_time(routing), "s"),
        "network.routing.invalidate_s": (
            t.self_time(routing, "Router.invalidate"),
            "s",
        ),
        "network.routing.compile_s": (
            t.self_time(routing, "Router.compile_all_pairs"),
            "s",
        ),
        "network.routing.lazy_s": (
            t.self_time(
                routing,
                "Router.pair_coefficients",
                "Router.transmission_time",
                "Router.transmission_times",
                "Router.path",
            ),
            "s",
        ),
        "network.routing.dijkstra_runs": (count("router_dijkstra_runs"), "count"),
        "network.routing.pairs_invalidated": (
            count("router_pairs_invalidated"),
            "count",
        ),
        "network.routing.pairs_recomputed": (
            count("router_pairs_recomputed"),
            "count",
        ),
        "network.routing.hit_rate": (
            ratio(
                count("router_hits"),
                count("router_hits") + count("router_misses"),
            ),
            "ratio",
        ),
        "core.compiled.self_s": (t.self_time("core.compiled"), "s"),
        "core.compiled.compile_s": (
            t.self_time("core.compiled", "CompiledInstance.__init__"),
            "s",
        ),
        "core.compiled.compiles": (
            t.calls_of("core.compiled", "CompiledInstance.__init__"),
            "count",
        ),
        "core.compiled.refresh_s": (
            t.self_time("core.compiled", "CompiledInstance.refresh_routes"),
            "s",
        ),
        "core.batch.self_s": (t.self_time("core.batch"), "s"),
        "core.batch.build_s": (
            t.self_time("core.batch", "BatchEvaluator.__init__"),
            "s",
        ),
        "core.batch.builds": (
            t.calls_of("core.batch", "BatchEvaluator.__init__"),
            "count",
        ),
        "core.batch.evaluate_s": (
            t.self_time("core.batch", "BatchEvaluator.evaluate"),
            "s",
        ),
        "core.batch.rows": (count("batch_rows"), "count"),
        "core.incremental.self_s": (t.self_time("core.incremental"), "s"),
        "core.incremental.evaluators": (
            t.calls_of("core.incremental", "MoveEvaluator.__init__"),
            "count",
        ),
        "core.cost.self_s": (t.self_time("core.cost"), "s"),
        "service.state.self_s": (t.self_time("service.state"), "s"),
        "service.state.cost_model_hit_rate": (
            ratio(cost_hits, cost_hits + cost_misses),
            "ratio",
        ),
        "algorithms.self_s": (t.self_time("algorithms"), "s"),
        "algorithms.deploys": (
            t.calls_of("algorithms", "DeploymentAlgorithm.deploy_with_report"),
            "count",
        ),
        "algorithms.runtime.self_s": (t.self_time("algorithms.runtime"), "s"),
        "algorithms.runtime.evaluations": (count("search_evaluations"), "count"),
        "algorithms.runtime.accept_rate": (
            ratio(count("search_accepted"), searched),
            "ratio",
        ),
        "parallel.api.self_s": (t.self_time("parallel.api"), "s"),
        "service.controller.self_s": (t.self_time("service.controller"), "s"),
        "service.controller.evaluations": (
            count("controller_evaluations"),
            "count",
        ),
        "service.queue.self_s": (t.self_time("service.queue"), "s"),
        "service.queue.wait_p50_ms": (
            statistics.median(t.waits) * 1e3 if t.waits else 0.0,
            "ms",
        ),
        "service.queue.failed": (count("queue_failed"), "count"),
        "service.checkpoint.write_s": (
            t.self_time("service.checkpoint", "write_checkpoint"),
            "s",
        ),
        "service.checkpoint.bytes": (count("checkpoint_bytes"), "bytes"),
        "service.checkpoint.restore_self_s": (
            t.self_time("service.checkpoint", "restore_controller"),
            "s",
        ),
        "service.log.self_s": (t.self_time("service.log"), "s"),
        # the verified restore runs after the loop, so it is left out
        "trace.coverage": (
            t.root_time(exclude=("restore_controller",))
            / sum(result.meter.loop_s for result in traced),
            "ratio",
        ),
        "trace.overhead_frac": (
            scaled_loop(traced) / scaled_loop(untraced) - 1.0,
            "ratio",
        ),
        "trace.spans": (len(t.spans), "count"),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
) -> dict:
    """Run one workload; return the full result document."""
    workload = workloads.WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    before = host_sample()
    raw_setup, scaled_setup = measure_setup(workload, seed, out)
    count = workload.units(seconds / 2 if trace else seconds)
    untraced, _ = run_units(workload, seed, out, count)
    runs = list(untraced)
    document: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started": started,
        "units": count,
        "digest": digest(untraced),
    }
    problems: list[str] = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, trace_counts = run_units(workload, seed, out, count, tracer)
        finally:
            tracer.uninstall()
        runs += traced
        metrics = per_layer(tracer, traced, untraced)
        trace_path = out / f"trace-{name}-{seed}.jsonl"
        document.update(
            traced_digest=digest(traced),
            wrapped_restored=tracer.restored(),
            trace_file=trace_path.name,
            spans_written=tracer.write(trace_path, {"workload": name, "seed": seed}),
            trace_counts=trace_counts,
        )
        if document["traced_digest"] != document["digest"]:
            problems.append("traced and untraced passes made different decisions")
        if not document["wrapped_restored"]:
            problems.append("a wrapped callable was not restored")
    else:
        metrics = timings(workload, untraced, scaled_setup, scaled=True)
        document["raw"] = {
            key: value
            for key, (value, _unit) in timings(
                workload, untraced, raw_setup, scaled=False
            ).items()
        }
    counters: dict[str, int] = {}
    samples: dict[str, list[float]] = {}
    for result in untraced:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, values in result.samples.items():
            samples.setdefault(key, []).extend(values)
    errors = [
        message
        for result in runs
        for message in result.errors + result.problems
    ] + problems
    failed = sum(result.failed + len(result.problems) for result in runs)
    document.update(
        correct=not errors,
        attempted=sum(result.ops for result in runs),
        failed=failed + len(problems),
        errors=errors[:20],
        metrics={
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
        setup_raw_s=raw_setup,
        raw_samples_median_s={
            key: statistics.median(values) for key, values in samples.items()
        },
        objective_s=statistics.geometric_mean(
            [value for result in untraced for value in result.objectives]
        ),
        counters=counters,
    )
    probes = [
        end - start
        for result in runs
        for start, end in result.meter.probes
    ]
    document["host"] = host_record(before, host_sample(), probes)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=HERE / "out",
        help="directory for result, trace and checkpoint files",
    )
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_repro()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    document = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.out
    )
    path = args.out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    for message in document["errors"]:
        print(f"error: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {document['attempted']} ops, "
        f"{document['units']} units, {document['failed']} failed; "
        f"result in {path}"
    )
    print(
        json.dumps(
            {
                key: document[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
