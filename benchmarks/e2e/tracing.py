"""Span tracer for the benchmark's traced runs.

The tracer wraps the layers' *public* callables -- the methods and
module functions listed in :data:`WRAPPED` -- from the benchmark's own
files, so the program under test is not edited. Each wrapped call
records one span ``(id, parent id, root id, key, start, end)`` in
memory, where *key* indexes ``(layer, name)`` and a layer is the name
of the module the callable lives in (``algorithms`` covers every
algorithm body, which runs inside ``deploy_with_report``). Self time
-- a span's duration minus its direct children's -- is accumulated as
the spans close, so the layers' self times add up to the time spent
inside root spans.

Counters come from public attributes and from the wrapped calls'
arguments and return values (see :data:`HOOKS`). Routing counters are
taken as deltas around the outermost routing span only, because the
router's public entry points call each other.

Known attribution limits, fixed only by spans inside the program:
the fleet controller's rebalance step generator runs inside
``SearchRuntime.run`` and is counted under ``algorithms.runtime``, and
route fills triggered while a ``BatchEvaluator`` is built land in the
routing layer's ``lazy`` time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any

ROUTING = "network.routing"

#: ``(layer, module, owner, attributes)``: *owner* is a class name in
#: the module, or ``None`` for module functions. Only attributes the
#: owner defines itself are wrapped, so restoring them is exact.
WRAPPED: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    (
        ROUTING,
        "repro.network.routing",
        "Router",
        (
            "invalidate",
            "compile_all_pairs",
            "pair_coefficients",
            "transmission_time",
            "transmission_times",
            "path",
        ),
    ),
    (
        "core.compiled",
        "repro.core.compiled",
        "CompiledInstance",
        ("__init__", "refresh_routes", "invalidate_routes", "compile_all_pairs"),
    ),
    (
        "core.batch",
        "repro.core.batch",
        "BatchEvaluator",
        ("__init__", "evaluate", "refresh_routes"),
    ),
    (
        "core.incremental",
        "repro.core.incremental",
        "MoveEvaluator",
        ("__init__", "propose", "propose_value", "commit", "apply", "resync"),
    ),
    (
        "core.cost",
        "repro.core.cost",
        "CostModel",
        ("__init__", "execution_time", "loads", "objective", "evaluate"),
    ),
    (
        "service.state",
        "repro.service.state",
        "FleetState",
        (
            "snapshot",
            "combined_loads",
            "remaining_budgets",
            "hosted_cycles",
            "mean_load_s",
            "build_cost_model",
            "add_tenant",
            "remove_tenant",
            "update_tenant_workflow",
            "fail_server",
            "join_server",
            "set_server_power",
            "drop_link",
            "degrade_link",
        ),
    ),
    (
        "algorithms",
        "repro.algorithms.base",
        "DeploymentAlgorithm",
        ("deploy_with_report",),
    ),
    ("algorithms.runtime", "repro.algorithms.runtime", "SearchRuntime", ("run",)),
    ("parallel.api", "repro.parallel.api", None, ("deploy_parallel",)),
    ("service.controller", "repro.service.controller", "FleetController", ("handle",)),
    ("service.queue", "repro.service.queue", "WorkQueue", ("submit", "pop")),
    (
        "service.queue",
        "repro.service.queue",
        "FleetService",
        ("submit", "process_next"),
    ),
    (
        "service.checkpoint",
        "repro.service.checkpoint",
        None,
        ("write_checkpoint", "restore_controller"),
    ),
    ("service.log", "repro.service.log", "FleetLog", ("append",)),
)

#: Spans written to a trace file at most; the per-layer totals always
#: cover every span.
MAX_WRITTEN_SPANS = 50_000

_ROUTER_COUNTERS = (
    "dijkstra_runs",
    "hits",
    "misses",
    "pairs_invalidated",
    "pairs_recomputed",
)


class Tracer:
    """In-memory spans and counters over the wrapped callables.

    Spans are recorded only while :attr:`active` is true; the runner
    switches it on around the timed loop of each unit, so input
    generation and the correctness oracle stay out of the trace.
    """

    def __init__(self) -> None:
        self.active = False
        self.origin = time.perf_counter()
        self.keys: list[tuple[str, str]] = []
        self.self_s: list[float] = []
        self.root_s: list[float] = []
        self.calls: list[int] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.counters: dict[str, float] = {}
        self.waits: list[float] = []
        self._submitted: dict[int, float] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every callable in :data:`WRAPPED` with a traced one."""
        for layer, module_name, owner_name, attributes in WRAPPED:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for attribute in attributes:
                original = owner.__dict__[attribute]
                name = (
                    attribute if owner_name is None else f"{owner_name}.{attribute}"
                )
                hook = HOOKS.get((owner_name, attribute))
                if layer == ROUTING:
                    hook = (_routing_before, _routing_after)
                traced = self._wrap(self._key(layer, name), original, hook)
                setattr(owner, attribute, traced)
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(
            owner.__dict__[attribute] is original
            for owner, attribute, original in self._patches
        )

    def _key(self, layer: str, name: str) -> int:
        self.keys.append((layer, name))
        self.self_s.append(0.0)
        self.root_s.append(0.0)
        self.calls.append(0)
        return len(self.keys) - 1

    def _wrap(self, key: int, function, hook):
        tracer = self
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        root_s = self.root_s
        calls = self.calls
        clock = time.perf_counter
        before, after = hook if hook is not None else (None, None)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            if stack:
                parent_id, root_id = stack[-1][0], stack[-1][1]
            else:
                parent_id, root_id = -1, span_id
            token = before(tracer, args) if before is not None else None
            frame = [span_id, root_id, 0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[2]
                calls[key] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    root_s[key] += duration
                spans.append((span_id, parent_id, root_id, key, start, end))
            if after is not None:
                after(tracer, args, token, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> dict[str, float]:
        """Every deterministic count so far: calls per callable, counters."""
        totals = {
            f"{layer}:{name}": calls
            for (layer, name), calls in zip(self.keys, self.calls)
        }
        totals.update(self.counters)
        return totals

    def self_time(self, layer: str, *names: str) -> float:
        """Self seconds of *layer*, or of its callables *names* only."""
        return sum(
            seconds
            for (span_layer, name), seconds in zip(self.keys, self.self_s)
            if span_layer == layer and (not names or name in names)
        )

    def calls_of(self, layer: str, name: str) -> int:
        return sum(
            calls
            for key, calls in zip(self.keys, self.calls)
            if key == (layer, name)
        )

    def root_time(self, exclude: tuple[str, ...] = ()) -> float:
        """Seconds spent inside root spans, except those named *exclude*."""
        return sum(
            seconds
            for (_layer, name), seconds in zip(self.keys, self.root_s)
            if name not in exclude
        )

    def write(self, path: Path, header: dict) -> int:
        """Write the spans as JSON lines; return how many were written.

        The first line is a header naming the fields and the key table;
        each further line is ``[id, parent, root, key, start_ns,
        end_ns]`` with times relative to the tracer's creation.
        """
        written = self.spans[:MAX_WRITTEN_SPANS]
        origin = self.origin
        with open(path, "w") as stream:
            stream.write(
                json.dumps(
                    {
                        **header,
                        "fields": ["id", "parent", "root", "key", "start_ns", "end_ns"],
                        "keys": self.keys,
                        "spans": len(self.spans),
                        "written": len(written),
                    }
                )
                + "\n"
            )
            for span_id, parent, root, key, start, end in written:
                stream.write(
                    f"[{span_id},{parent},{root},{key},"
                    f"{round((start - origin) * 1e9)},"
                    f"{round((end - origin) * 1e9)}]\n"
                )
        return len(written)


# ----------------------------------------------------------------------
# counter hooks: (before, after) pairs, keyed by (owner, attribute)
# ----------------------------------------------------------------------
def _routing_before(tracer: Tracer, args) -> tuple | None:
    # nested router calls (invalidate -> compile_all_pairs) are counted
    # once, by the outermost routing span
    if any(tracer.keys[frame[3]][0] == ROUTING for frame in tracer._stack):
        return None
    router = args[0]
    return tuple(getattr(router, name) for name in _ROUTER_COUNTERS)


def _routing_after(tracer: Tracer, args, token, result) -> None:
    if token is None:
        return
    router = args[0]
    for name, before in zip(_ROUTER_COUNTERS, token):
        tracer.count(f"router_{name}", getattr(router, name) - before)


def _rows(tracer: Tracer, args, token, result) -> None:
    tracer.count("batch_rows", len(result))


def _search_report(tracer: Tracer, args, token, result) -> None:
    report = result.report
    tracer.count("search_evaluations", report.evaluations)
    tracer.count("search_accepted", report.accepted)
    tracer.count("search_rejected", report.rejected)


def _evaluations_before(tracer: Tracer, args) -> int:
    return args[0].evaluations


def _evaluations_after(tracer: Tracer, args, token, result) -> None:
    tracer.count("controller_evaluations", args[0].evaluations - token)


def _submitted(tracer: Tracer, args, token, job) -> None:
    tracer._submitted[id(job)] = time.perf_counter()


def _popped(tracer: Tracer, args, token, job) -> None:
    submitted = tracer._submitted.pop(id(job), None)
    if submitted is not None:
        tracer.waits.append(time.perf_counter() - submitted)


def _processed(tracer: Tracer, args, token, job) -> None:
    if job is not None and job.state == "failed":
        tracer.count("queue_failed")


def _checkpoint_bytes(tracer: Tracer, args, token, path) -> None:
    tracer.count("checkpoint_bytes", Path(path).stat().st_size)


HOOKS: dict[tuple[str | None, str], tuple] = {
    ("BatchEvaluator", "evaluate"): (None, _rows),
    ("SearchRuntime", "run"): (None, _search_report),
    ("FleetController", "handle"): (_evaluations_before, _evaluations_after),
    ("WorkQueue", "submit"): (None, _submitted),
    ("WorkQueue", "pop"): (None, _popped),
    ("FleetService", "process_next"): (None, _processed),
    (None, "write_checkpoint"): (None, _checkpoint_bytes),
}
