"""Fault injection: a racer that raises fails the whole race.

A racer shares no state with the others, so there is no accounting to
repair after a crash: its exception reaches the caller, from the
process pool as from the inline run.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import DeploymentAlgorithm
from repro.core.cost import CostModel
from repro.network.topology import bus_network
from repro.parallel import deploy_parallel
from repro.parallel.worker import SearchTask, payload_from, run_search_task

from ..service.conftest import make_line


@pytest.fixture
def instance():
    workflow = make_line("faulty", [10e6, 20e6, 30e6, 40e6])
    network = bus_network([1e9, 1e9, 2e9], 1e8)
    return workflow, network


class _CrashingAlgorithm(DeploymentAlgorithm):
    """Dies before producing a deployment."""

    name = "Crasher"

    def _deploy(self, context):
        raise RuntimeError("worker crashed mid-search")


class TestSearchTaskCrash:
    def test_crash_propagates_from_the_task(self, instance):
        workflow, network = instance
        task = SearchTask(
            index=0,
            label="crash",
            payload=payload_from(workflow, network, CostModel(workflow, network)),
            algorithm=_CrashingAlgorithm(),
            seed=0,
        )
        with pytest.raises(RuntimeError, match="crashed"):
            run_search_task(task)

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
    def test_crash_propagates_from_the_race(self, instance, inline):
        workflow, network = instance
        with pytest.raises(RuntimeError, match="crashed"):
            deploy_parallel(
                _CrashingAlgorithm(),
                workflow,
                network,
                workers=2,
                seed=0,
                inline=inline,
            )
