"""Tests for the built-in fleet scenarios and the replay driver."""

import random

import pytest

from repro.exceptions import ServiceError
from repro.io.json_codec import workflow_to_dict
from repro.service.controller import FleetConfig
from repro.service.events import CapacityDrift, LinkDegrade, WorkloadDrift
from repro.service.scenarios import (
    build_scenario,
    builtin_scenarios,
    drift_capacity,
    drift_workflow,
    replay,
    wave_workflow,
)
from repro.service.state import FleetState
from tests.oracles import rebuild_routes_on_link_events

from .conftest import make_line


class TestCatalogue:
    def test_builtin_names(self):
        assert builtin_scenarios() == (
            "steady",
            "churn",
            "surge",
            "drift",
            "abilene",
            "geo",
            "diurnal",
        )

    def test_unknown_scenario_raises(self):
        with pytest.raises(ServiceError, match="unknown scenario"):
            build_scenario("nope")

    def test_scenarios_carry_descriptions(self):
        for name in builtin_scenarios():
            scenario = build_scenario(name, seed=3)
            assert scenario.name == name
            assert scenario.description
            assert scenario.events


class TestReplay:
    def test_replay_processes_every_event(self):
        scenario = build_scenario("steady", seed=7)
        planned = len(scenario.events)
        controller = replay("steady", seed=7)
        assert len(controller.log) == planned
        assert controller.metrics().events == planned

    def test_churn_exercises_the_full_lifecycle(self):
        metrics = replay("churn", seed=7).metrics()
        assert metrics.rejected > 0  # tight admission cap must bite
        assert metrics.failures_recovered == 2
        assert metrics.servers_joined == 1
        assert metrics.orphans_rehomed > 0
        assert metrics.rebalances >= 1

    def test_surge_is_exactly_two_hundred_events(self):
        scenario = build_scenario("surge", seed=0)
        assert len(scenario.events) == 200

    def test_algorithm_override_applies(self):
        controller = replay("steady", seed=1, algorithm="FairLoad")
        admitted = controller.log.filter("deploy", "admitted")
        assert admitted
        assert all(
            record.detail("algorithm") == "FairLoad" for record in admitted
        )


class TestDriftWorkflow:
    def test_deterministic_in_the_rng_state(self, xor_diamond):
        first = drift_workflow(xor_diamond, random.Random(42), 0.5)
        second = drift_workflow(xor_diamond, random.Random(42), 0.5)
        assert workflow_to_dict(first) == workflow_to_dict(second)
        # a different stream produces a genuinely different drift
        other = drift_workflow(xor_diamond, random.Random(43), 0.5)
        assert workflow_to_dict(other) != workflow_to_dict(first)

    def test_preserves_shape_and_cycles(self, xor_diamond):
        drifted = drift_workflow(xor_diamond, random.Random(7), 0.9)
        assert drifted.operation_names == xor_diamond.operation_names
        for name in xor_diamond.operation_names:
            assert (
                drifted.operation(name).cycles
                == xor_diamond.operation(name).cycles
            )
        assert len(drifted.messages) == len(xor_diamond.messages)

    def test_sizes_floored_and_probabilities_renormalised(self, xor_diamond):
        rng = random.Random(3)
        for _ in range(20):
            drifted = drift_workflow(xor_diamond, rng, 0.95)
            for message in drifted.messages:
                assert message.size_bits >= 1.0
            branches = drifted.outgoing("choice")
            assert sum(m.probability for m in branches) == pytest.approx(1.0)
            assert all(m.probability > 0 for m in branches)

    def test_zero_amplitude_is_a_copy_without_rng_draws(self, xor_diamond):
        rng = random.Random(11)
        state = rng.getstate()
        copy = drift_workflow(xor_diamond, rng, 0.0)
        assert rng.getstate() == state  # not one draw consumed
        assert copy is not xor_diamond
        assert workflow_to_dict(copy) == workflow_to_dict(xor_diamond)

    def test_rename_applies(self):
        workflow = make_line("alpha", [10e6, 20e6])
        drifted = drift_workflow(
            workflow, random.Random(0), 0.25, name="alpha-v2"
        )
        assert drifted.name == "alpha-v2"

    @pytest.mark.parametrize(
        "amplitude", [-0.1, 1.0, 1.5, float("nan"), float("inf")]
    )
    def test_amplitude_bounds(self, amplitude):
        workflow = make_line("alpha", [10e6, 20e6])
        with pytest.raises(ServiceError, match="amplitude"):
            drift_workflow(workflow, random.Random(0), amplitude)
        with pytest.raises(ServiceError, match="amplitude"):
            drift_capacity(1e9, random.Random(0), amplitude)


class TestDriftCapacity:
    def test_deterministic_and_floored(self):
        assert drift_capacity(2e9, random.Random(5), 0.3) == drift_capacity(
            2e9, random.Random(5), 0.3
        )
        rng = random.Random(9)
        for _ in range(50):
            assert drift_capacity(1.1e6, rng, 0.9) >= 1e6

    def test_zero_amplitude_returns_power_unchanged(self):
        rng = random.Random(1)
        state = rng.getstate()
        assert drift_capacity(2e9, rng, 0.0) == 2e9
        assert rng.getstate() == state


class TestDriftScenario:
    def test_contains_both_drift_event_kinds(self):
        scenario = build_scenario("drift", seed=5)
        kinds = {type(event) for event in scenario.events}
        assert WorkloadDrift in kinds
        assert CapacityDrift in kinds

    def test_drift_compounds_across_rounds(self):
        scenario = build_scenario("drift", seed=0)
        per_tenant: dict[str, list] = {}
        for event in scenario.events:
            if isinstance(event, WorkloadDrift):
                per_tenant.setdefault(event.tenant, []).append(event.workflow)
        assert per_tenant
        for rounds in per_tenant.values():
            assert len(rounds) == 6
            documents = [workflow_to_dict(w) for w in rounds]
            # cumulative: every round differs from the one before
            for earlier, later in zip(documents, documents[1:]):
                assert earlier != later

    def test_replay_rebalances_under_drift(self):
        controller = replay("drift", seed=0)
        metrics = controller.metrics()
        assert metrics.rebalances >= 1
        assert metrics.rebalance_moves >= 1
        drifted = controller.log.filter("workload-drift", "drifted")
        rescaled = controller.log.filter("capacity-drift", "rescaled")
        assert drifted
        assert rescaled


class TestTopologyScenarios:
    """The real-topology packs: Abilene trunks and geo regions."""

    def test_abilene_replay_is_deterministic(self):
        first = replay("abilene", seed=0).log.to_text()
        second = replay("abilene", seed=0).log.to_text()
        assert first == second

    def test_abilene_exercises_every_link_event_branch(self):
        log = replay("abilene", seed=0).log
        assert log.filter("link-degraded", "degraded")
        assert log.filter("link-failed", "rerouted")
        rejected = log.filter("link-failed", "rejected")
        assert rejected
        assert rejected[0].detail("reason") == "would-partition"
        # the would-partition failure kept its link: ATLAM5 stays
        # reachable only through ATLAng in the Abilene graph

    def test_abilene_runs_on_the_bundled_backbone(self):
        scenario = build_scenario("abilene", seed=0)
        assert len(scenario.network) == 12
        assert "IPLSng" in scenario.network
        assert not scenario.network.is_uniform_bus()

    def test_abilene_seeds_differ(self):
        assert (
            replay("abilene", seed=0).log.to_text()
            != replay("abilene", seed=1).log.to_text()
        )

    def test_geo_replay_is_deterministic(self):
        first = replay("geo", seed=0).log.to_text()
        second = replay("geo", seed=0).log.to_text()
        assert first == second

    def test_geo_outage_rehomes_orphans(self):
        log = replay("geo", seed=0).log
        recovered = log.filter("region-outage", "recovered")
        assert recovered
        assert int(recovered[0].detail("orphans")) > 0
        assert int(recovered[0].detail("servers_lost")) == 2
        rejected = log.filter("region-outage", "rejected")
        assert rejected
        assert rejected[0].detail("reason") == "unknown-region"

    def test_geo_degrade_before_outage(self):
        log = replay("geo", seed=0).log
        assert log.filter("link-degraded", "degraded")


class TestWaveWorkflow:
    def test_scales_every_message_size(self):
        base = make_line("wave", [100.0, 200.0, 300.0], bits=10_000)
        peak = wave_workflow(base, 1.5)
        for message in peak.messages:
            assert message.size_bits == 15_000.0
        # the original is untouched
        assert all(m.size_bits == 10_000 for m in base.messages)

    def test_sizes_floored_at_one_bit(self):
        base = make_line("wave", [100.0, 200.0], bits=10.0)
        trough = wave_workflow(base, 1e-6)
        assert all(m.size_bits == 1.0 for m in trough.messages)

    def test_rename_applies(self):
        base = make_line("wave", [100.0, 200.0])
        assert wave_workflow(base, 2.0).name == "wave"
        assert wave_workflow(base, 2.0, name="peak").name == "peak"

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_factor_bounds(self, factor):
        base = make_line("wave", [100.0])
        with pytest.raises(ServiceError, match="wave factor"):
            wave_workflow(base, factor)


class TestDiurnalScenario:
    def test_replay_is_deterministic(self):
        first = replay("diurnal", seed=0).log.to_text()
        second = replay("diurnal", seed=0).log.to_text()
        assert first == second

    def test_contains_both_degrade_polarities(self):
        scenario = build_scenario("diurnal", seed=0)
        degrades = [
            event
            for event in scenario.events
            if isinstance(event, LinkDegrade)
        ]
        assert degrades
        # peak brownouts are strict worsenings; trough recoveries are
        # improvements (both refresh routes in place)
        assert any(event.speed_factor == 0.5 for event in degrades)
        assert any(event.speed_factor == 2.0 for event in degrades)

    def test_waves_drive_rebalances(self):
        metrics = replay("diurnal", seed=0).metrics()
        assert metrics.rebalances >= 1
        assert metrics.route_dijkstra_runs > 0


def _replay_scoped_and_rebuilt(name, seed=0):
    """Replay *name* twice: scoped refresh, then the rebuild oracle."""
    scoped = replay(build_scenario(name, seed=seed))
    with rebuild_routes_on_link_events():
        rebuilt = replay(build_scenario(name, seed=seed))
    return scoped, rebuilt


class TestInvalidationModes:
    """Scoped route refresh decides exactly like a from-scratch rebuild.

    The oracle is :func:`tests.oracles.rebuild_routes_on_link_events`:
    every link event drops the router and every cost model, so nothing
    cached survives it.
    """

    def test_unknown_mode_raises(self, fleet_network):
        # one refresh path and one pricing path remain; the switches
        # between the old ones are gone
        with pytest.raises(TypeError):
            FleetConfig(route_invalidation="scoped")
        with pytest.raises(TypeError):
            FleetConfig(parallel_workers=1)
        with pytest.raises(TypeError):
            FleetState(fleet_network, route_invalidation="scoped")

    @pytest.mark.parametrize("name", ["abilene", "geo", "diurnal"])
    def test_modes_agree_byte_for_byte(self, name):
        scoped, rebuilt = _replay_scoped_and_rebuilt(name)
        assert scoped.log.to_text() == rebuilt.log.to_text()
        assert scoped.evaluations == rebuilt.evaluations

    def test_scoped_runs_fewer_dijkstras_than_lazy(self):
        scoped, rebuilt = _replay_scoped_and_rebuilt("abilene")
        assert (
            scoped.state.router_dijkstra_runs
            < rebuilt.state.router_dijkstra_runs
        )
