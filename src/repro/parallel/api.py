"""Public entry points of the parallel layer.

:func:`deploy_parallel`
    One algorithm, run as parallel seeded restarts: every worker runs
    the full search from its own spawned RNG stream, best run wins.
:func:`race_portfolio`
    Many algorithms racing, each under its share of one budget -- the
    portfolio pattern: constructive seeds fanned into polishers, best
    deployment wins.

Both return a :class:`~repro.parallel.runtime.ParallelOutcome` and obey
the determinism contract: every racer is a solo search under its
budget slice and spawned seed, so a fixed ``(seed, workers)`` pair
reproduces the same result for eval-/step-capped and unbudgeted runs,
and the process pool gives exactly the inline result (where a
wall-clock deadline stops a racer depends on timing; with
``inline=True`` and an injected clock even that is exact).
``workers=1`` is the serial escape hatch -- :func:`deploy_parallel`
then makes the exact
:meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy_with_report`
call a non-parallel caller would make, byte-identical report included.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import SearchBudget
from repro.core.clock import Clock
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.core.workflow import Workflow
from repro.exceptions import AlgorithmError
from repro.network.topology import ServerNetwork
from repro.parallel.rng import require_spawnable_seed, spawn_seed
from repro.parallel.runtime import (
    ParallelOutcome,
    ParallelReport,
    ParallelRuntime,
    WorkerRun,
    race,
)
from repro.parallel.specs import DEFAULT_PORTFOLIO, AlgorithmSpec, spec_label
from repro.parallel.worker import payload_from

__all__ = ["deploy_parallel", "race_portfolio", "default_workers"]


def default_workers() -> int:
    """The worker count used when callers pass ``workers=None``."""
    return max(1, os.cpu_count() or 1)


def _serial_outcome(
    entry: "AlgorithmSpec | DeploymentAlgorithm",
    workflow: Workflow,
    network: ServerNetwork,
    cost_model: CostModel | None,
    rng: Any,
    budget: SearchBudget | None,
    clock: Clock | None,
) -> ParallelOutcome:
    """The ``workers=1`` path: the exact serial call, wrapped.

    No payload, no seed spawning -- byte-identity with
    :meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy_with_report`
    holds by construction, not by argument.
    """
    if cost_model is None:
        cost_model = CostModel(workflow, network)
    algorithm = entry.build() if isinstance(entry, AlgorithmSpec) else entry
    deployment, report = algorithm.deploy_with_report(
        workflow,
        network,
        cost_model=cost_model,
        rng=rng,
        budget=budget,
        clock=clock,
    )
    value = cost_model.objective(deployment)
    run = WorkerRun(
        index=0,
        label=spec_label(entry),
        deployment=deployment,
        value=value,
        report=report,
    )
    return ParallelOutcome(
        best=deployment,
        best_value=value,
        report=report,
        parallel=ParallelReport(
            plan="serial",
            workers=1,
            winner=0,
            runs=(run,),
            evaluations=report.evaluations if report is not None else 1,
        ),
    )


def deploy_parallel(
    algorithm: "AlgorithmSpec | DeploymentAlgorithm | str",
    workflow: Workflow,
    network: ServerNetwork,
    cost_model: CostModel | None = None,
    workers: int | None = None,
    seed: Any = None,
    budget: SearchBudget | None = None,
    inline: bool = False,
    clock: Clock | None = None,
) -> ParallelOutcome:
    """Run one algorithm as seeded restarts across *workers* processes.

    Parameters mirror :meth:`~repro.algorithms.base.DeploymentAlgorithm.
    deploy_with_report` where they overlap; the parallel-specific knobs:

    ``algorithm``
        Registry name (``"Genetic"``, ``"HillClimbing@FL-TieResolver2"``),
        an :class:`~repro.parallel.specs.AlgorithmSpec`, or a picklable
        configured instance.
    ``workers``
        Number of restarts (and pool size); defaults to the machine's
        CPU count. ``1`` makes the exact serial call (see module docs).
        Each restart gets an even
        :func:`~repro.parallel.budget.slice_budget` share of *budget*.
    ``seed``
        Root of the deterministic per-worker RNG streams. Must be a
        *spawnable* seed (int/str/None) when ``workers > 1`` -- a live
        ``random.Random`` has one stream and cannot be split.
    ``inline``
        Run the restarts one after another in this process instead of
        in a pool (same seeds, slices and merged result).
    """
    entry = AlgorithmSpec.coerce(algorithm)
    if workers is None:
        workers = default_workers()
    SearchBudget.validate_count("workers", workers)
    if workers == 1:
        return _serial_outcome(
            entry,
            workflow,
            network,
            cost_model,
            coerce_rng(seed),
            budget,
            clock,
        )
    seed = require_spawnable_seed(seed)
    label = spec_label(entry)
    racers = [
        (f"{label}#{index}", entry, spawn_seed(seed, "worker", index))
        for index in range(workers)
    ]
    with ParallelRuntime(workers, inline=inline, clock=clock) as runtime:
        return race(
            runtime,
            payload_from(workflow, network, cost_model),
            racers,
            budget=budget,
            plan_label="restarts",
        )


def race_portfolio(
    workflow: Workflow,
    network: ServerNetwork,
    portfolio: Sequence["AlgorithmSpec | DeploymentAlgorithm | str"] | None = None,
    cost_model: CostModel | None = None,
    workers: int | None = None,
    seed: Any = None,
    budget: SearchBudget | None = None,
    inline: bool = False,
    clock: Clock | None = None,
) -> ParallelOutcome:
    """Race a portfolio of algorithms, each under its share of *budget*.

    The line-up defaults to :data:`~repro.parallel.specs.
    DEFAULT_PORTFOLIO`. With more workers than entries the portfolio
    wraps around (extra racers are fresh-seeded restarts of the line-up
    from the top); with fewer workers every entry still races, sharing
    the smaller pool. ``workers=1`` races the portfolio sequentially --
    same entries, same seeds, same merged outcome, no processes.
    """
    entries = [
        AlgorithmSpec.coerce(entry)
        for entry in (portfolio if portfolio is not None else DEFAULT_PORTFOLIO)
    ]
    if not entries:
        raise AlgorithmError("portfolio must name at least one algorithm")
    if workers is None:
        workers = default_workers()
    SearchBudget.validate_count("workers", workers)
    seed = require_spawnable_seed(seed)
    num_racers = max(workers, len(entries))
    racers = []
    for index in range(num_racers):
        entry = entries[index % len(entries)]
        label = spec_label(entry)
        if index >= len(entries):
            label = f"{label}#{index}"
        racers.append((label, entry, spawn_seed(seed, "racer", index)))
    with ParallelRuntime(workers, inline=inline, clock=clock) as runtime:
        return race(
            runtime,
            payload_from(workflow, network, cost_model),
            racers,
            budget=budget,
            plan_label="portfolio",
        )
