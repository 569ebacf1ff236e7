"""The end-to-end tracer's targets still exist in the program.

``benchmarks/e2e/tracing.py`` wraps the callables its :data:`WRAPPED`
table names, reading each from its owner's ``__dict__``, and
``benchmarks/e2e/workloads.py`` reads the fleet's work counters from
:class:`~repro.service.state.FleetState`. Both files are
frozen with the benchmark, so a renamed or deleted target would only
show up as an error in every traced benchmark run; these checks catch
it in the ordinary test suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.network.routing import Router
from repro.network.topology import bus_network
from repro.service.state import FleetState

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", E2E / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize(
    "layer, module_name, owner_name, attributes",
    TRACING.WRAPPED,
    ids=[f"{entry[1]}:{entry[2]}" for entry in TRACING.WRAPPED],
)
def test_every_wrapped_attribute_is_defined_by_its_owner(
    layer, module_name, owner_name, attributes
):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    missing = [name for name in attributes if name not in vars(owner)]
    assert not missing, (layer, owner_name, missing)


def test_router_counters_the_tracer_reads_exist():
    router = Router(bus_network([1e9, 2e9], speed_bps=1e8))
    for name in TRACING._ROUTER_COUNTERS:
        assert isinstance(getattr(router, name), int), name


def _fleet_finish_state_reads():
    """The ``state.<name>`` attributes ``_fleet_finish`` reads."""
    tree = ast.parse((E2E / "workloads.py").read_text())
    finish = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_fleet_finish"
    )
    return sorted(
        {
            node.attr
            for node in ast.walk(finish)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "state"
        }
    )


def test_fleet_counters_the_workloads_read_exist():
    reads = _fleet_finish_state_reads()
    assert "router_hits" in reads  # the parse found the counter block
    state = FleetState(bus_network([1e9, 2e9], speed_bps=1e8))
    for name in reads:
        assert isinstance(getattr(state, name), int), name
