"""Unit tests for the exhaustive algorithm."""

import itertools

import pytest

from repro.algorithms.exhaustive import Exhaustive
from repro.core.cost import CostModel
from repro.core.workflow import Operation, Workflow
from repro.exceptions import AlgorithmError, SearchSpaceTooLargeError
from repro.network.topology import bus_network


@pytest.fixture
def tiny():
    """A 3-op line on a 2-server bus: 8 configurations."""
    workflow = Workflow("tiny")
    workflow.add_operations(
        [Operation("A", 10e6), Operation("B", 20e6), Operation("C", 30e6)]
    )
    workflow.connect("A", "B", 8_000)
    workflow.connect("B", "C", 16_000)
    network = bus_network([1e9, 2e9], speed_bps=100e6)
    return workflow, network, CostModel(workflow, network)


def test_search_space_size(tiny):
    workflow, network, _ = tiny
    assert Exhaustive().search_space_size(workflow, network) == 8


def test_enumerate_covers_all_configurations(tiny):
    workflow, network, model = tiny
    seen = {
        tuple(sorted(em.deployment.as_dict().items()))
        for em in Exhaustive().enumerate(workflow, network, model)
    }
    assert len(seen) == 8
    expected = {
        tuple(sorted(zip(("A", "B", "C"), combo)))
        for combo in itertools.product(("S1", "S2"), repeat=3)
    }
    assert seen == expected


def test_best_is_global_minimum(tiny):
    workflow, network, model = tiny
    algorithm = Exhaustive()
    best = algorithm.best(workflow, network, model)
    all_objectives = [
        em.cost.objective
        for em in algorithm.enumerate(workflow, network, model)
    ]
    assert best.cost.objective == pytest.approx(min(all_objectives))


def test_deploy_equals_best(tiny):
    workflow, network, model = tiny
    algorithm = Exhaustive()
    deployment = algorithm.deploy(workflow, network, cost_model=model)
    assert deployment == algorithm.best(workflow, network, model).deployment


def test_limit_guard(tiny):
    workflow, network, model = tiny
    algorithm = Exhaustive(limit=7)
    with pytest.raises(SearchSpaceTooLargeError):
        list(algorithm.enumerate(workflow, network, model))
    with pytest.raises(SearchSpaceTooLargeError):
        algorithm.deploy(workflow, network, cost_model=model)


def test_invalid_limit_rejected():
    # a bad argument is an AlgorithmError, not a search outcome -- callers
    # catching SearchSpaceTooLargeError to fall back to a heuristic must
    # not swallow a programming error
    with pytest.raises(AlgorithmError) as excinfo:
        Exhaustive(limit=0)
    assert not isinstance(excinfo.value, SearchSpaceTooLargeError)


def test_heuristics_never_beat_exhaustive(tiny):
    """Sanity anchor: no registered heuristic beats the optimum."""
    from repro.algorithms.base import algorithm_registry

    workflow, network, model = tiny
    optimum = Exhaustive().best(workflow, network, model).cost.objective
    for name, cls in algorithm_registry().items():
        if name in ("Exhaustive", "Line-Line"):
            continue
        deployment = cls().deploy(workflow, network, cost_model=model, rng=3)
        assert model.objective(deployment) >= optimum - 1e-12, name
