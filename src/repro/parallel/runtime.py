"""The multiprocess fan-out runtime: pools, plans, merging.

:class:`ParallelRuntime` owns the mechanics every plan shares -- a
lazily created ``ProcessPoolExecutor`` plus ``multiprocessing.Manager``
(or a purely sequential *inline* mode for workers-in-this-process
execution, deterministic tests and clock injection), ordered task
fan-out with a parent-side watchdog loop that propagates external
cancellation and the global deadline into the shared
:class:`~repro.parallel.budget.BudgetLedger`, and result merging.

Three sharding protocols run on top of it (see DESIGN §11):

:func:`race`
    Independent full searches -- parallel seeded restarts of one
    algorithm, or a portfolio of different algorithms -- each under a
    deterministic :func:`~repro.parallel.budget.slice_budget` share.
    The global best wins; ties break on the lowest worker index.
:func:`islands`
    The GA island model. Islands evolve ``migration_every`` generations
    per round behind a barrier; between rounds the coordinator performs
    ring migration (island *i* receives the elite of island *i-1*,
    replacing its worst genome) and re-seeds each island's next round
    from ``seed:island:i:round:r``. Populations travel as server-index
    genomes; budgets are re-sliced each round from the ledger's actual
    spend (deterministic, because rounds are barriers and workers flush
    exact totals).
:func:`partition`
    One cooperative hill-climbing trajectory: each sweep, every worker
    scans the single-operation moves of its own operation partition
    (``ops[w::workers]``), the coordinator applies the globally best
    strict improvement (ties to the lowest worker index) and
    broadcasts the updated server vector.

Everything returns a :class:`ParallelOutcome`: the winning deployment,
its objective, a merged serial-shaped
:class:`~repro.algorithms.runtime.SearchReport` (summed accounting, a
merged anytime curve, one stop reason), and the per-worker
:class:`ParallelReport`.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.algorithms.base import DeploymentAlgorithm, get_algorithm
from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_EXHAUSTED,
    STOP_MAX_EVALS,
    STOP_MAX_STEPS,
    CancelToken,
    SearchBudget,
    SearchReport,
)
from repro.core.clock import MONOTONIC, Clock
from repro.core.mapping import Deployment
from repro.core.rng import coerce_rng
from repro.parallel.budget import (
    DEFAULT_FLUSH_EVERY,
    STOP_TARGET,
    BudgetLedger,
    InlineLedger,
    SharedLedger,
    slice_budget,
)
from repro.parallel.rng import spawn_seed
from repro.parallel.specs import AlgorithmSpec, ShardPlan
from repro.parallel.worker import (
    InstancePayload,
    IslandTask,
    PartitionTask,
    SearchTask,
    run_island_task,
    run_partition_scan,
    run_search_task,
)

__all__ = [
    "ParallelRuntime",
    "WorkerRun",
    "ParallelReport",
    "ParallelOutcome",
    "race",
    "islands",
    "partition",
    "merge_curves",
]


# ----------------------------------------------------------------------
# outcome containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerRun:
    """One worker's contribution, coordinator side."""

    index: int
    label: str
    deployment: Deployment
    value: float
    report: SearchReport | None


@dataclass(frozen=True)
class ParallelReport:
    """Structured account of one parallel run.

    ``runs`` holds one entry per logical worker position (racer,
    island, or partition), in deterministic plan order -- never in
    completion order. ``winner`` indexes into it.
    """

    plan: str
    workers: int
    winner: int
    runs: tuple[WorkerRun, ...]
    evaluations: int

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        best = self.runs[self.winner]
        return (
            f"plan {self.plan}, {self.workers} workers, "
            f"{len(self.runs)} runs, {self.evaluations} evaluations, "
            f"winner: {best.label}"
        )


@dataclass(frozen=True)
class ParallelOutcome:
    """What every plan returns (see module docs)."""

    best: Deployment
    best_value: float
    report: SearchReport | None
    parallel: ParallelReport


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge_curves(
    curves: Sequence[tuple[tuple[int, Any], ...]],
) -> tuple[tuple[int, Any], ...]:
    """Merge per-worker anytime curves into one best-so-far curve.

    Worker-local steps are the only cross-process ordering that is
    *reproducible* (wall-clock interleavings are not), so entries merge
    sorted by ``(step, worker_index)`` and the result keeps strict
    improvements only. Read it as "the best value any worker had
    reached by its k-th step".
    """
    tagged = [
        (step, worker, value)
        for worker, curve in enumerate(curves)
        for step, value in curve
    ]
    tagged.sort(key=lambda entry: (entry[0], entry[1]))
    merged: list[tuple[int, Any]] = []
    best = None
    for step, _, value in tagged:
        if best is None or value < best:
            best = value
            merged.append((step, value))
    return tuple(merged)


def _merge_stop_reason(
    ledger: BudgetLedger,
    runs: Sequence[WorkerRun],
    budget: SearchBudget | None,
) -> str:
    """One stop reason for the merged report (deterministic for
    deterministic runs: priority order, then worker order)."""
    if ledger.stop_reason in (STOP_CANCELLED, STOP_TARGET, STOP_DEADLINE):
        return ledger.stop_reason
    reasons = [
        run.report.stop_reason for run in runs if run.report is not None
    ]
    for candidate in (STOP_DEADLINE, STOP_MAX_EVALS, STOP_MAX_STEPS):
        if candidate in reasons:
            return candidate
    for reason in reasons:
        if reason != STOP_EXHAUSTED:
            return reason
    return STOP_EXHAUSTED


def _merged_outcome(
    plan_label: str,
    workers: int,
    runs: Sequence[WorkerRun],
    ledger: BudgetLedger,
    budget: SearchBudget | None,
    elapsed_s: float,
) -> ParallelOutcome:
    """Reduce worker runs to the global best + merged report."""
    winner = min(range(len(runs)), key=lambda i: (runs[i].value, i))
    reports = [run.report for run in runs if run.report is not None]
    merged = SearchReport(
        steps=sum(r.steps for r in reports),
        evaluations=max(
            ledger.evaluations, sum(r.evaluations for r in reports)
        ),
        accepted=sum(r.accepted for r in reports),
        rejected=sum(r.rejected for r in reports),
        best_value=runs[winner].value,
        curve=merge_curves([r.curve for r in reports]),
        stop_reason=_merge_stop_reason(ledger, runs, budget),
        elapsed_s=elapsed_s,
    )
    return ParallelOutcome(
        best=runs[winner].deployment,
        best_value=runs[winner].value,
        report=merged,
        parallel=ParallelReport(
            plan=plan_label,
            workers=workers,
            winner=winner,
            runs=tuple(runs),
            evaluations=merged.evaluations,
        ),
    )


# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class ParallelRuntime:
    """Owns the worker pool and drives ordered task fan-out.

    Parameters
    ----------
    workers:
        Logical worker count: pool size, and the shard width every plan
        uses (number of racers/islands/partitions). Must be >= 1.
    inline:
        When true, no processes are created: tasks run sequentially in
        the parent, in task order, against an
        :class:`~repro.parallel.budget.InlineLedger`. Semantically the
        same plans (identical seeds, slices and merge), which makes it
        the vehicle for deterministic tests, injected clocks, and
        environments where multiprocessing is unavailable.
    flush_every:
        Evaluation-batch size of the workers' ledger flushes.
    clock:
        Parent-side clock for the global deadline watchdog and elapsed
        accounting; in inline mode it is also handed to each task's
        local :class:`~repro.algorithms.runtime.SearchRuntime`.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); platform default when ``None``.
    poll_s:
        Watchdog period of the parent wait loop.

    Use as a context manager, or call :meth:`close` -- a runtime may
    serve many plan invocations (the fleet controller keeps one).
    """

    def __init__(
        self,
        workers: int,
        inline: bool = False,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        clock: Clock | None = None,
        start_method: str | None = None,
        poll_s: float = 0.05,
    ):
        SearchBudget.validate_count("workers", workers)
        self.workers = workers
        self.inline = inline or workers == 1
        self.flush_every = SearchBudget.validate_count(
            "flush_every", flush_every
        )
        self.clock = clock if clock is not None else MONOTONIC
        self.start_method = start_method
        self.poll_s = poll_s
        self._pool: ProcessPoolExecutor | None = None
        self._manager = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool and manager down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method is not None
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def make_ledger(self, max_evals: int | None = None) -> BudgetLedger:
        """A fresh ledger of the right kind for this runtime."""
        if self.inline:
            return InlineLedger(max_evals)
        if self._manager is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
        return SharedLedger(self._manager, max_evals)

    # -- fan-out -------------------------------------------------------
    def execute(
        self,
        fn: Callable,
        tasks: Sequence[Any],
        ledger: BudgetLedger,
        deadline_at: float | None = None,
        cancel: CancelToken | None = None,
    ) -> list[Any]:
        """Run ``fn(task, ledger)`` for every task; results in task order.

        Process mode submits everything and babysits the futures: every
        ``poll_s`` the parent folds an external cancellation or the
        global deadline into the ledger, which workers observe at their
        next flush boundary. Inline mode runs tasks sequentially,
        re-checking the same conditions between tasks and shrinking
        each task's deadline share to the time actually remaining.
        """
        if self.inline:
            return self._execute_inline(fn, tasks, ledger, deadline_at, cancel)
        pool = self._ensure_pool()
        futures = [pool.submit(fn, task, ledger) for task in tasks]
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=self.poll_s, return_when=FIRST_COMPLETED
            )
            self._watchdog(ledger, deadline_at, cancel)
        return [future.result() for future in futures]

    def _watchdog(
        self,
        ledger: BudgetLedger,
        deadline_at: float | None,
        cancel: CancelToken | None,
    ) -> None:
        if cancel is not None and cancel.cancelled:
            ledger.request_stop(STOP_CANCELLED)
        if deadline_at is not None and self.clock() >= deadline_at:
            ledger.request_stop(STOP_DEADLINE)

    def _execute_inline(
        self, fn, tasks, ledger, deadline_at, cancel
    ) -> list[Any]:
        results = []
        for task in tasks:
            self._watchdog(ledger, deadline_at, cancel)
            budget = getattr(task, "budget", None)
            if (
                budget is not None
                and budget.deadline_s is not None
                and deadline_at is not None
            ):
                # sequential execution: this task's share of the shared
                # deadline is whatever wall clock is actually left
                remaining = deadline_at - self.clock()
                if remaining <= 0:
                    ledger.request_stop(STOP_DEADLINE)
                    remaining = None
                task = dataclasses.replace(
                    task,
                    budget=dataclasses.replace(
                        budget, deadline_s=remaining
                    ),
                )
            results.append(fn(task, ledger, self.clock))
        return results


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def race(
    runtime: ParallelRuntime,
    payload: InstancePayload,
    racers: Sequence[tuple[str, "AlgorithmSpec | DeploymentAlgorithm", Any]],
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
    plan_label: str = "restarts",
) -> ParallelOutcome:
    """Fan independent full searches out and keep the global best.

    ``racers`` is a deterministic sequence of ``(label, algorithm,
    seed)`` -- the portfolio or restart line-up with pre-spawned
    per-worker seeds. Each racer receives its
    :func:`~repro.parallel.budget.slice_budget` share.
    """
    start = runtime.clock()
    ledger = runtime.make_ledger(budget.max_evals if budget else None)
    deadline_at = (
        start + budget.deadline_s
        if budget is not None and budget.deadline_s is not None
        else None
    )
    tasks = [
        SearchTask(
            index=index,
            label=label,
            payload=payload,
            algorithm=algorithm,
            seed=seed,
            budget=slice_budget(budget, len(racers), index),
            target_value=target_value,
            flush_every=runtime.flush_every,
        )
        for index, (label, algorithm, seed) in enumerate(racers)
    ]
    results = runtime.execute(
        run_search_task, tasks, ledger, deadline_at, cancel
    )
    runs = [
        WorkerRun(
            index=result.index,
            label=result.label,
            deployment=Deployment(result.mapping),
            value=result.value,
            report=result.report,
        )
        for result in results
    ]
    return _merged_outcome(
        plan_label,
        runtime.workers,
        runs,
        ledger,
        budget,
        runtime.clock() - start,
    )


def _argmin(values: Sequence[float]) -> int:
    return min(range(len(values)), key=lambda i: (values[i], i))


def _argmax(values: Sequence[float]) -> int:
    return max(range(len(values)), key=lambda i: (values[i], -i))


def islands(
    runtime: ParallelRuntime,
    payload: InstancePayload,
    seed,
    generations: int,
    ga_params: dict,
    plan: ShardPlan,
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
) -> ParallelOutcome:
    """GA island model with periodic ring migration (see module docs)."""
    start = runtime.clock()
    num_islands = runtime.workers
    max_evals = budget.max_evals if budget is not None else None
    ledger = runtime.make_ledger(max_evals)
    deadline_at = (
        start + budget.deadline_s
        if budget is not None and budget.deadline_s is not None
        else None
    )
    params = tuple(sorted(ga_params.items()))
    populations: list[tuple[tuple[int, ...], ...] | None]
    populations = [None] * num_islands

    # per-island accumulators across rounds
    best_value = [None] * num_islands
    best_mapping: list[dict | None] = [None] * num_islands
    steps = [0] * num_islands
    evals = [0] * num_islands
    accepted = [0] * num_islands
    rejected = [0] * num_islands
    curves: list[list[tuple[int, Any]]] = [[] for _ in range(num_islands)]
    last_reason = [STOP_EXHAUSTED] * num_islands

    done_generations = 0
    round_index = 0
    while done_generations < generations:
        if cancel is not None and cancel.cancelled:
            ledger.request_stop(STOP_CANCELLED)
        if deadline_at is not None and runtime.clock() >= deadline_at:
            ledger.request_stop(STOP_DEADLINE)
        if round_index > 0 and ledger.stop_requested:
            # round zero always runs: workers see the pre-tripped stop
            # and still produce their initial population (the anytime
            # contract the serial runtime keeps under pre-cancellation)
            break
        round_budget = budget
        if max_evals is not None:
            remaining_evals = max_evals - ledger.evaluations
            if remaining_evals <= 0:
                break
            round_budget = SearchBudget(
                max_evals=remaining_evals, deadline_s=budget.deadline_s
            )
        round_generations = min(
            plan.migration_every, generations - done_generations
        )
        tasks = [
            IslandTask(
                index=island,
                payload=payload,
                seed=spawn_seed(seed, "island", island, "round", round_index),
                generations=round_generations,
                ga_params=params,
                population=populations[island],
                budget=slice_budget(round_budget, num_islands, island),
                target_value=target_value,
                flush_every=runtime.flush_every,
            )
            for island in range(num_islands)
        ]
        results = runtime.execute(
            run_island_task, tasks, ledger, deadline_at, cancel
        )
        for island, result in enumerate(results):
            report = result.report
            offset = steps[island]
            curves[island].extend(
                (offset + step, value) for step, value in report.curve
            )
            steps[island] += report.steps
            evals[island] += report.evaluations
            accepted[island] += report.accepted
            rejected[island] += report.rejected
            last_reason[island] = report.stop_reason
            if best_value[island] is None or result.value < best_value[island]:
                best_value[island] = result.value
                best_mapping[island] = result.mapping

        # ring migration: island i adopts the elite of island i-1 in
        # place of its own worst genome (identity ring for one island)
        next_populations = [list(result.population) for result in results]
        if num_islands > 1:
            for island in range(num_islands):
                donor = results[(island - 1) % num_islands]
                elite = donor.population[_argmin(donor.objectives)]
                worst = _argmax(results[island].objectives)
                next_populations[island][worst] = elite
        populations = [tuple(pop) for pop in next_populations]
        done_generations += round_generations
        round_index += 1

    runs = [
        WorkerRun(
            index=island,
            label=f"island:{island}",
            deployment=Deployment(best_mapping[island]),
            value=best_value[island],
            report=SearchReport(
                steps=steps[island],
                evaluations=evals[island],
                accepted=accepted[island],
                rejected=rejected[island],
                best_value=best_value[island],
                curve=tuple(curves[island]),
                stop_reason=last_reason[island],
                elapsed_s=0.0,
            ),
        )
        for island in range(num_islands)
    ]
    return _merged_outcome(
        "islands",
        runtime.workers,
        runs,
        ledger,
        budget,
        runtime.clock() - start,
    )


def partition(
    runtime: ParallelRuntime,
    payload: InstancePayload,
    workflow,
    network,
    cost_model,
    seed,
    seed_algorithm_name: str | None,
    plan: ShardPlan,
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
) -> ParallelOutcome:
    """Partitioned-neighbourhood cooperative hill climbing.

    The coordinator holds the single trajectory (a server-index
    vector); each sweep fans the ``M x (N - 1)`` move scan out by
    operation partition and applies the globally best strict
    improvement. Equivalent to serial best-improvement hill climbing on
    the same start whenever per-partition bests are exact -- which they
    are, the workers price with the same incremental evaluator.
    """
    start = runtime.clock()
    num_workers = runtime.workers
    max_evals = budget.max_evals if budget is not None else None
    ledger = runtime.make_ledger(max_evals)
    deadline_at = (
        start + budget.deadline_s
        if budget is not None and budget.deadline_s is not None
        else None
    )
    start_rng = coerce_rng(spawn_seed(seed, "start"))
    if seed_algorithm_name is not None:
        starting = get_algorithm(seed_algorithm_name)().deploy(
            workflow, network, cost_model=cost_model, rng=start_rng
        )
    else:
        starting = Deployment.random(workflow, network, start_rng)
    compiled = cost_model.compiled
    servers = compiled.server_vector(starting)
    current_value = cost_model.objective(starting)
    ledger.record(1)
    partitions = [
        tuple(range(compiled.num_ops))[w::num_workers]
        for w in range(num_workers)
    ]
    worker_evals = [0] * num_workers
    worker_accepted = [0] * num_workers
    curve: list[tuple[int, Any]] = [(1, current_value)]
    rounds = 0
    stop_reason = STOP_EXHAUSTED
    for _ in range(plan.max_rounds):
        if cancel is not None and cancel.cancelled:
            ledger.request_stop(STOP_CANCELLED)
        if deadline_at is not None and runtime.clock() >= deadline_at:
            ledger.request_stop(STOP_DEADLINE)
        if target_value is not None and current_value <= target_value:
            ledger.request_stop(STOP_TARGET)
        if ledger.stop_requested:
            stop_reason = ledger.stop_reason
            break
        if max_evals is not None and ledger.evaluations >= max_evals:
            stop_reason = STOP_MAX_EVALS
            break
        tasks = [
            PartitionTask(
                index=worker,
                payload=payload,
                servers=tuple(servers),
                operations=partitions[worker],
                flush_every=runtime.flush_every,
            )
            for worker in range(num_workers)
            if partitions[worker]
        ]
        results = runtime.execute(
            run_partition_scan, tasks, ledger, deadline_at, cancel
        )
        rounds += 1
        for result in results:
            worker_evals[result.index] += result.evaluations
        improving = [
            result
            for result in results
            if result.move is not None and result.value < current_value
        ]
        if not improving:
            break
        best = min(improving, key=lambda r: (r.value, r.index))
        op, server = best.move
        servers[op] = server
        current_value = best.value
        worker_accepted[best.index] += 1
        curve.append((1 + rounds, current_value))
    else:
        stop_reason = STOP_MAX_STEPS

    deployment = Deployment(
        {
            compiled.op_names[op]: compiled.server_names[server]
            for op, server in enumerate(servers)
        }
    )
    runs = [
        WorkerRun(
            index=worker,
            label=f"partition:{worker}",
            deployment=deployment,
            value=current_value,
            report=SearchReport(
                steps=rounds,
                evaluations=worker_evals[worker],
                accepted=worker_accepted[worker],
                rejected=worker_evals[worker] - worker_accepted[worker],
                best_value=current_value,
                curve=tuple(curve) if worker == 0 else (),
                stop_reason=stop_reason,
                elapsed_s=0.0,
            ),
        )
        for worker in range(num_workers)
    ]
    return _merged_outcome(
        "partition",
        runtime.workers,
        runs,
        ledger,
        budget,
        runtime.clock() - start,
    )
