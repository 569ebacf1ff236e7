"""Parallel wiring of the experiment harness and the fleet controller.

Both consumers promise the same contract as ``deploy_parallel``:
fanning work across processes changes wall-clock time only, never the
results -- records and fleet logs are byte-identical to the serial run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.clock import StepClock
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario


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
    def _replay(self, parallel_workers):
        scenario = build_scenario("churn", seed=3)
        config = dataclasses.replace(
            scenario.config, parallel_workers=parallel_workers
        )
        with FleetController(
            scenario.network, config=config, clock=StepClock()
        ) as controller:
            controller.run(scenario.events)
            pooled = controller._pricing_runtime is not None
            return list(controller.log), pooled

    def test_parallel_pricing_matches_serial_log(self):
        serial, _ = self._replay(1)
        parallel, pooled = self._replay(2)
        assert pooled, "the multi-tenant pricing fan-out never engaged"
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_removed_use_batch_keywords_are_rejected(self):
        # one batch pricing path remains; the scalar-fallback switch is
        # gone from all three constructors that used to take it
        from repro.algorithms.genetic import GeneticAlgorithm
        from repro.algorithms.sampling import SolutionSampler
        from repro.service.controller import FleetConfig

        for factory in (GeneticAlgorithm, SolutionSampler, FleetConfig):
            with pytest.raises(TypeError):
                factory(use_batch=False)
