"""Property-based tests: checkpoint codecs and restore-resume equality."""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import StepClock
from repro.core.migration import MigrationCostModel
from repro.exceptions import ReproError, ValidationError
from repro.service.checkpoint import (
    event_from_dict,
    event_to_dict,
    from_dict,
    restore_controller,
    to_dict,
    write_checkpoint,
)
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.log import LogRecord
from repro.service.scenarios import build_scenario
from repro.service.state import FleetSnapshot
from repro.workloads.generator import line_workflow
from tests.oracles import hand_config_from_dict, hand_event_from_dict

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
    document = json.loads(json.dumps(to_dict(record)))
    assert from_dict(LogRecord, document).to_line() == record.to_line()


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
    document = json.loads(json.dumps(to_dict(snapshot)))
    assert from_dict(FleetSnapshot, document) == snapshot


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_config_round_trip_from_scenario(seed):
    config = build_scenario("steady", seed=seed).config
    document = json.loads(json.dumps(to_dict(config)))
    assert from_dict(FleetConfig, document) == config


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


# ----------------------------------------------------------------------
# the dataclass decoder against the hand-written decoders
# ----------------------------------------------------------------------
def _valid_documents() -> list[tuple[str, dict]]:
    """One valid document of every event kind, plus two configs."""
    workflow = line_workflow(3, seed=1)
    sample_events = [
        DeployRequest("alpha", workflow),
        DeployRequest("beta", workflow, algorithm="Exhaustive"),
        UndeployRequest("gamma"),
        ServerFailed("S2"),
        ServerJoined("S9", 2e9, 5e7, propagation_s=0.001),
        WorkloadDrift("alpha", workflow),
        CapacityDrift("S3", 1.25e9),
        LinkFailure("S1", "S2"),
        LinkDegrade("S2", "S3", 0.5, propagation_factor=1.5),
        RegionOutage("us-east"),
        Tick(),
    ]
    configs = [
        FleetConfig(),
        FleetConfig(
            admission_load_limit_s=0.25,
            migration=MigrationCostModel(0.25, 5e5, 0.02),
            migration_weight=0.05,
            rebalance_cooldown_ticks=3,
        ),
    ]
    return [("event", event_to_dict(event)) for event in sample_events] + [
        ("config", to_dict(config)) for config in configs
    ]


VALID_DOCUMENTS = _valid_documents()

#: Replacement values: wrong types, numeric strings, out-of-range and
#: non-finite numbers, containers.
odd_values = st.sampled_from(
    [None, "abc", "", "1.5", "3", "nan", "inf", True, -1, 0, 2.5, 1e400,
     [], [1], ["a", "b"], {}, {"kind": "tick"}]
)


def _decode_both(family: str, document):
    """``(new, oracle)`` outcomes: the decoded object or the exception."""
    if family == "event":
        decoders = (event_from_dict, hand_event_from_dict)
    else:
        decoders = (
            lambda doc: from_dict(FleetConfig, doc),
            hand_config_from_dict,
        )
    outcomes = []
    for decode in decoders:
        try:
            outcomes.append(decode(document))
        except Exception as exc:  # noqa: BLE001 -- the outcome under test
            outcomes.append(exc)
    return outcomes


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_decoder_matches_hand_decoders_on_mutated_documents(data):
    """Both accept or both reject; accepted documents encode equally,
    and where the hand decoder let a bare ``ValueError``/``TypeError``
    (or any other non-library error) escape, the new one raises
    :class:`ValidationError`."""
    family, base = data.draw(st.sampled_from(VALID_DOCUMENTS))
    document = copy.deepcopy(base)
    target = document
    if isinstance(document.get("migration"), dict) and data.draw(
        st.booleans()
    ):
        target = document["migration"]
    mutation = data.draw(
        st.sampled_from(["drop", "replace", "null", "kind", "document"])
    )
    if mutation == "document":
        document = data.draw(odd_values)
    elif mutation == "kind":
        target["kind"] = data.draw(
            st.sampled_from(["teleport", "", "Tick", 5, None, ["tick"]])
        )
    elif target:
        field = data.draw(st.sampled_from(sorted(target)))
        if mutation == "drop":
            del target[field]
        elif mutation == "null":
            target[field] = None
        else:
            target[field] = data.draw(odd_values)

    new, oracle = _decode_both(family, document)
    new_failed = isinstance(new, Exception)
    oracle_failed = isinstance(oracle, Exception)
    assert new_failed == oracle_failed, (document, new, oracle)
    if not new_failed:
        assert json.dumps(to_dict(new), sort_keys=True) == json.dumps(
            to_dict(oracle), sort_keys=True
        )
    else:
        assert isinstance(new, ReproError), (document, new)
        if not isinstance(oracle, ReproError):
            assert isinstance(new, ValidationError), (document, new)
