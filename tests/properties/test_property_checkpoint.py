"""Property-based tests: checkpoint codecs and restore-resume equality."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import StepClock
from repro.service.checkpoint import (
    config_from_dict,
    config_to_dict,
    event_from_dict,
    event_to_dict,
    record_from_dict,
    record_to_dict,
    restore_controller,
    snapshot_from_dict,
    snapshot_to_dict,
    write_checkpoint,
)
from repro.service.controller import FleetController
from repro.service.events import (
    DeployRequest,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
)
from repro.service.log import LogRecord
from repro.service.scenarios import build_scenario
from repro.service.state import FleetSnapshot
from repro.workloads.generator import line_workflow

names = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F
    ),
    min_size=1,
    max_size=12,
)
finite_floats = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
seeds = st.integers(min_value=0, max_value=10_000)


def _workflow(seed: int):
    return line_workflow(5, seed=seed)


events = st.one_of(
    st.builds(
        DeployRequest,
        tenant=names,
        workflow=seeds.map(_workflow),
        algorithm=st.none() | st.just("HeavyOps-LargeMsgs"),
    ),
    st.builds(UndeployRequest, tenant=names),
    st.builds(ServerFailed, server=names),
    st.builds(
        ServerJoined,
        server=names,
        power_hz=finite_floats,
        link_speed_bps=finite_floats,
        propagation_s=st.floats(
            min_value=0, max_value=10, allow_nan=False
        ),
    ),
    st.builds(Tick),
)


@given(event=events)
@settings(max_examples=40, deadline=None)
def test_event_round_trip_through_json_is_identity(event):
    document = json.loads(json.dumps(event_to_dict(event), sort_keys=True))
    decoded = event_from_dict(document)
    assert type(decoded) is type(event)
    assert event_to_dict(decoded) == event_to_dict(event)


records = st.builds(
    LogRecord,
    seq=st.integers(min_value=0, max_value=10**6),
    event=names,
    subject=names,
    action=names,
    latency_s=st.floats(min_value=0, max_value=1e3, allow_nan=False),
    details=st.lists(
        st.tuples(names, names), max_size=4, unique_by=lambda kv: kv[0]
    ).map(lambda pairs: tuple(sorted(pairs))),
)


@given(record=records)
@settings(max_examples=40, deadline=None)
def test_record_round_trip_preserves_canonical_line(record):
    document = json.loads(json.dumps(record_to_dict(record)))
    assert record_from_dict(document).to_line() == record.to_line()


snapshots = st.builds(
    FleetSnapshot,
    execution_time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    time_penalty=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    objective=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    loads=st.dictionaries(names, finite_floats, max_size=5),
    balance_index=st.floats(min_value=0, max_value=1, allow_nan=False),
    tenants=st.integers(min_value=0, max_value=1000),
)


@given(snapshot=snapshots)
@settings(max_examples=40, deadline=None)
def test_snapshot_round_trip_through_json_is_exact(snapshot):
    """JSON float repr round-trips exactly -- snapshots compare equal."""
    document = json.loads(json.dumps(snapshot_to_dict(snapshot)))
    assert snapshot_from_dict(document) == snapshot


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_config_round_trip_from_scenario(seed):
    config = build_scenario("steady", seed=seed).config
    document = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(document) == config


@given(
    name=st.sampled_from(["steady", "churn"]),
    seed=st.integers(min_value=0, max_value=20),
    cut_fraction=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=8, deadline=None)
def test_restore_then_resume_equals_uninterrupted(name, seed, cut_fraction):
    """Crash at a random boundary; the resumed log is byte-identical."""
    scenario = build_scenario(name, seed=seed)
    uninterrupted = FleetController(
        build_scenario(name, seed=seed).network,
        config=scenario.config,
        clock=StepClock(),
    )
    for event in scenario.events:
        uninterrupted.handle(event)

    cut = round(cut_fraction * len(scenario.events))
    crashed = FleetController(
        build_scenario(name, seed=seed).network,
        config=scenario.config,
        clock=StepClock(),
    )
    for event in scenario.events[:cut]:
        crashed.handle(event)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = write_checkpoint(
            crashed, Path(tmp) / "fleet.json", pending=scenario.events[cut:]
        )
        resumed, pending = restore_controller(path)
    for event in pending:
        resumed.handle(event)
    assert resumed.log.to_text() == uninterrupted.log.to_text()
    assert resumed.state.snapshot() == uninterrupted.state.snapshot()
