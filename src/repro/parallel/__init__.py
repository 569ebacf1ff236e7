"""repro.parallel -- multiprocess restart & portfolio search runtime.

A fan-out layer over the serial anytime
:class:`~repro.algorithms.runtime.SearchRuntime`: run one algorithm as
seeded restarts across worker processes, or race a portfolio of
algorithms, each under its share of one evaluation/deadline budget,
with a merged anytime report. Deterministic by construction -- worker
RNG streams are pure functions of the root seed and each worker's
position, and budget shares are pre-partitioned -- so a fixed
``(seed, workers)`` pair reproduces the same winner, in a process pool
or inline. See DESIGN §11 for the protocols.
"""

from repro.parallel.api import (
    default_workers,
    deploy_parallel,
    race_portfolio,
)
from repro.parallel.budget import slice_budget
from repro.parallel.rng import require_spawnable_seed, spawn_rng, spawn_seed
from repro.parallel.runtime import (
    ParallelOutcome,
    ParallelReport,
    ParallelRuntime,
    WorkerRun,
    merge_curves,
)
from repro.parallel.specs import DEFAULT_PORTFOLIO, AlgorithmSpec
from repro.parallel.worker import InstancePayload, payload_from

__all__ = [
    "deploy_parallel",
    "race_portfolio",
    "default_workers",
    "ParallelRuntime",
    "ParallelOutcome",
    "ParallelReport",
    "WorkerRun",
    "merge_curves",
    "AlgorithmSpec",
    "DEFAULT_PORTFOLIO",
    "slice_budget",
    "spawn_seed",
    "spawn_rng",
    "require_spawnable_seed",
    "InstancePayload",
    "payload_from",
]
