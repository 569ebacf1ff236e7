"""Parallel wiring of the experiment harness; the fleet stays serial.

The harness promises the same contract as ``deploy_parallel``: fanning
repetitions across processes changes wall-clock time only, never the
results -- records are byte-identical to the serial run. The fleet
controller prices in process only.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner


def _record_key(record):
    return (
        record.algorithm,
        record.repetition,
        record.cost.objective,
        record.deployment.as_dict(),
    )


class TestExperimentRunnerWorkers:
    CONFIG = ExperimentConfig(
        workflow_kind="line",
        num_operations=6,
        num_servers=3,
        repetitions=3,
        seed=11,
    )
    SUITE = ("HeavyOps-LargeMsgs", "FL-TieResolver2")

    def test_parallel_repetitions_match_serial(self):
        serial = ExperimentRunner(self.SUITE, workers=1).run(self.CONFIG)
        parallel = ExperimentRunner(self.SUITE, workers=2).run(self.CONFIG)
        assert len(serial.records) == len(parallel.records)
        assert [_record_key(r) for r in serial.records] == [
            _record_key(r) for r in parallel.records
        ]

    def test_workers_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner(self.SUITE, workers=0)


class TestFleetParallelPricing:
    """The fleet's pricing fan-out is gone: one in-process kernel."""

    def test_removed_use_batch_keywords_are_rejected(self):
        # one batch pricing path remains; the scalar-fallback switch is
        # gone from all three constructors that used to take it
        from repro.algorithms.genetic import GeneticAlgorithm
        from repro.algorithms.sampling import SolutionSampler
        from repro.service.controller import FleetConfig

        for factory in (GeneticAlgorithm, SolutionSampler, FleetConfig):
            with pytest.raises(TypeError):
                factory(use_batch=False)
