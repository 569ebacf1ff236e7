"""Unit tests for :class:`repro.service.state.FleetState` and helpers."""

import pytest

from repro.core.mapping import Deployment
from repro.exceptions import ReproError, ServiceError
from repro.network.topology import Link, Server, ServerNetwork, bus_network
from repro.service.state import FleetState, jain_index

from .conftest import make_line


def place_round_robin(state, tenant, workflow):
    """Admit *tenant* with a round-robin placement; returns the record."""
    deployment = Deployment.round_robin(workflow, state.network)
    return state.add_tenant(tenant, workflow, deployment)


class TestFairnessHelpers:
    def test_jain_index_perfectly_fair(self):
        assert jain_index({"a": 2.0, "b": 2.0, "c": 2.0}) == pytest.approx(1.0)

    def test_jain_index_single_loaded_server(self):
        assert jain_index({"a": 5.0, "b": 0.0, "c": 0.0, "d": 0.0}) == (
            pytest.approx(0.25)
        )

    def test_jain_index_idle_fleet_is_fair(self):
        assert jain_index({"a": 0.0, "b": 0.0}) == 1.0


class TestTenantLifecycle:
    def test_add_and_remove_tenant(self, fleet_network, tenant_workflows):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        assert "alpha" in state and len(state) == 1
        removed = state.remove_tenant("alpha")
        assert removed.tenant == "alpha"
        assert "alpha" not in state

    def test_duplicate_tenant_rejected(self, fleet_network, tenant_workflows):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        with pytest.raises(ServiceError, match="already hosted"):
            place_round_robin(state, "alpha", tenant_workflows["alpha"])

    def test_unknown_tenant_raises(self, fleet_network):
        state = FleetState(fleet_network)
        with pytest.raises(ServiceError, match="no tenant"):
            state.tenant("ghost")


class TestSharedCaches:
    def test_cost_model_cached_until_topology_changes(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        first = state.cost_model("alpha")
        assert state.cost_model("alpha") is first
        assert (state.cost_model_hits, state.cost_model_misses) == (1, 1)
        state.join_server("S9", 1e9, 100e6)
        rebuilt = state.cost_model("alpha")
        assert rebuilt is not first
        assert state.cost_model_misses == 2

    def test_router_counters_survive_failure(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        state.combined_loads()
        state.cost_model("alpha").execution_time(
            state.tenant("alpha").deployment
        )
        before = state.router.misses
        assert before > 0
        state.fail_server("S4")
        assert state.router.misses == before  # counters carried over
        assert state.router.network is state.network

    def test_server_change_compiles_the_new_router_once(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        assert not state.router._rows  # set-up stays lazy
        for name, workflow in tenant_workflows.items():
            place_round_robin(state, name, workflow)
        state.snapshot()
        runs, misses = state.router_dijkstra_runs, state.router_misses
        assert misses > 0
        state.join_server("S9", 1e9, 100e6)
        assert not state.router._rows  # filled on first use
        state.snapshot()
        for tenant in state.tenants:
            state.cost_model(tenant).compiled.batch_evaluator()
        # every pair of the 5-server bus is cached, each source filled
        # once (at most one miss per source) from rows the dense
        # dominance certificate answers without Dijkstra
        assert len(state.router._rows) == 5 - 1
        assert all(None not in row for row in state.router.route_table())
        assert state.router_dijkstra_runs == runs
        assert misses < state.router_misses <= misses + 5 - 1


class TestAggregates:
    def test_combined_loads_sum_over_tenants(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        for tenant in ("alpha", "beta"):
            place_round_robin(state, tenant, tenant_workflows[tenant])
        loads = state.combined_loads()
        expected = {name: 0.0 for name in state.network.server_names}
        for tenant in ("alpha", "beta"):
            record = state.tenant(tenant)
            for server, load in (
                state.cost_model(tenant).loads(record.deployment).items()
            ):
                expected[server] += load
        assert loads == pytest.approx(expected)

    def test_mean_load_projection(self, fleet_network, tenant_workflows):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        base = state.mean_load_s()
        assert base == pytest.approx(60e6 / fleet_network.total_power_hz)
        projected = state.mean_load_s(extra_cycles=90e6)
        assert projected == pytest.approx(
            150e6 / fleet_network.total_power_hz
        )

    def test_remaining_budgets_sum_to_extra_cycles(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        place_round_robin(state, "alpha", tenant_workflows["alpha"])
        budgets = state.remaining_budgets(extra_cycles=50e6)
        # ideal shares sum to hosted + extra; hosted subtracts itself
        assert sum(budgets.values()) == pytest.approx(50e6)

    def test_empty_fleet_snapshot(self, fleet_network):
        snapshot = FleetState(fleet_network).snapshot()
        assert snapshot.execution_time == 0.0
        assert snapshot.objective == 0.0
        assert snapshot.balance_index == 1.0
        assert snapshot.tenants == 0


class TestTopologyChanges:
    def test_fail_server_orphans_and_rebuild(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        for tenant in ("alpha", "beta", "gamma"):
            place_round_robin(state, tenant, tenant_workflows[tenant])
        orphans = state.fail_server("S1")
        assert "S1" not in state.network
        assert orphans  # round-robin put something on every server
        for tenant, operations in orphans.items():
            deployment = state.tenant(tenant).deployment
            for operation in operations:
                assert deployment.get(operation) is None

    def test_fail_last_server_rejected(self):
        state = FleetState(bus_network([1e9], 1e8))
        with pytest.raises(ServiceError, match="only fleet server"):
            state.fail_server("S1")

    def test_join_server_links_to_everyone(self, fleet_network):
        state = FleetState(fleet_network)
        state.join_server("S9", 1.5e9, 50e6)
        assert "S9" in state.network
        for other in ("S1", "S2", "S3", "S4"):
            assert state.network.has_link(other, "S9")
        assert state.network.is_connected()

    def test_join_duplicate_server_rejected(self, fleet_network):
        state = FleetState(fleet_network)
        with pytest.raises(ServiceError, match="already in the fleet"):
            state.join_server("S1", 1e9, 1e8)

    @pytest.mark.parametrize(
        "power_hz,link_speed_bps,propagation_s",
        [
            (-1e9, 1e8, 0.0),  # bad power
            (0.0, 1e8, 0.0),  # zero power
            (1e9, -5.0, 0.0),  # bad link speed
            (1e9, 0.0, 0.0),  # zero link speed
            (1e9, 1e8, -0.5),  # negative propagation delay
        ],
    )
    def test_join_server_is_transactional(
        self, fleet_network, power_hz, link_speed_bps, propagation_s
    ):
        """Regression: bad join parameters must leave the fleet untouched.

        ``join_server`` used to add the server (and some links) before
        the failing parameter was validated, leaving a half-joined
        server behind. All servers and links are now constructed --
        and therefore validated -- before the first mutation.
        """
        state = FleetState(fleet_network)
        servers_before = state.network.server_names
        links_before = len(state.network.links)
        with pytest.raises(ReproError):
            state.join_server(
                "S9", power_hz, link_speed_bps, propagation_s
            )
        assert state.network.server_names == servers_before
        assert len(state.network.links) == links_before
        assert "S9" not in state.network
        # the fleet is still fully usable: a good join goes through
        state.join_server("S9", 1e9, 1e8)
        assert "S9" in state.network


class TestWorkCounters:
    """Server changes rebind compiled workflows; routes are read once."""

    @pytest.fixture
    def counters(self, monkeypatch):
        from repro.core.batch import DenseRoutes
        from repro.core.compiled import CompiledWorkflow

        counts = {"compiles": 0, "dense_reads": 0}

        def counting(key, function):
            def counted(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            CompiledWorkflow,
            "__init__",
            counting("compiles", CompiledWorkflow.__init__),
        )
        monkeypatch.setattr(
            DenseRoutes, "_read", counting("dense_reads", DenseRoutes._read)
        )
        return counts

    @staticmethod
    def price_everything(state):
        state.snapshot()
        for tenant in state.tenants:
            state.cost_model(tenant).compiled.batch_evaluator()

    @pytest.mark.parametrize(
        "change", ["failure", "join", "capacity"]
    )
    @pytest.mark.parametrize("tenants", [1, 3])
    def test_server_change_compiles_no_workflow(
        self, fleet_network, tenant_workflows, counters, change, tenants
    ):
        state = FleetState(fleet_network)
        for name in list(tenant_workflows)[:tenants]:
            place_round_robin(state, name, tenant_workflows[name])
        self.price_everything(state)
        assert counters == {"compiles": tenants, "dense_reads": 1}
        before = {t: state.cost_model(t).compiled for t in state.tenants}
        router = state.router
        if change == "failure":
            orphans = state.fail_server("S4")
            for tenant, operations in orphans.items():
                for operation in operations:
                    state.tenant(tenant).deployment.assign(operation, "S1")
        elif change == "join":
            state.join_server("S9", 1e9, 100e6)
        else:
            state.set_server_power("S2", 3e9)
        self.price_everything(state)
        # routes do not depend on server power: a capacity change keeps
        # the router and its dense matrices
        kept = change == "capacity"
        assert (state.router is router) == kept
        assert counters == {"compiles": tenants, "dense_reads": 1 if kept else 2}
        table = state.router.route_table()
        for tenant, old in before.items():
            compiled = state.cost_model(tenant).compiled
            assert compiled is not old
            assert compiled.compiled_workflow is old.compiled_workflow
            assert compiled.routes is table

    def test_workload_drift_recompiles_only_that_tenant(
        self, fleet_network, tenant_workflows, counters
    ):
        state = FleetState(fleet_network)
        for name, workflow in tenant_workflows.items():
            place_round_robin(state, name, workflow)
        self.price_everything(state)
        state.update_tenant_workflow("beta", make_line("beta", [45e6, 50e6]))
        self.price_everything(state)
        assert counters == {"compiles": 4, "dense_reads": 1}
        # a server change right after the drift rebinds the new workflow
        state.join_server("S9", 1e9, 100e6)
        self.price_everything(state)
        assert counters == {"compiles": 4, "dense_reads": 2}

    def test_pricing_a_placed_fleet_counts_no_router_hits(
        self, fleet_network, tenant_workflows
    ):
        """Route-table reads fill whole sources; name queries count hits."""
        state = FleetState(fleet_network)
        for name, workflow in tenant_workflows.items():
            place_round_robin(state, name, workflow)
        self.price_everything(state)
        assert state.router_misses > 0
        assert state.router_hits == 0
        state.router.pair_coefficients("S1", "S2")
        assert state.router_hits == 1

    @staticmethod
    def line_state():
        """Servers S1-S2-S3-S4 on a line; alpha on S1/S2, beta on S2/S3."""
        network = ServerNetwork("line-4")
        names = ("S1", "S2", "S3", "S4")
        network.add_servers([Server(name, 1e9) for name in names])
        for a, b in zip(names, names[1:]):
            network.add_link(Link(a, b, 100e6, 1e-3))
        state = FleetState(network)
        for tenant, servers in (("alpha", ("S1", "S2")), ("beta", ("S2", "S3"))):
            workflow = make_line(tenant, [10e6, 20e6])
            placement = Deployment(dict(zip(workflow.operation_names, servers)))
            state.add_tenant(tenant, workflow, placement)
        state.snapshot()
        return state

    def test_far_link_degrade_reprices_no_tenant(self):
        state = self.line_state()
        prices = {tenant: state.price(tenant) for tenant in state.tenants}
        misses = state.price_misses
        state.degrade_link("S3", "S4", 0.5)
        state.snapshot()
        for tenant, price in prices.items():
            assert state.price(tenant) is price
        assert state.price_misses == misses

    def test_used_link_degrade_reprices_exactly_its_tenant(self):
        state = self.line_state()
        prices = {tenant: state.price(tenant) for tenant in state.tenants}
        misses = state.price_misses
        state.degrade_link("S1", "S2", 0.5)
        state.snapshot()
        assert state.price("beta") is prices["beta"]
        assert state.price_misses == misses + 1
        repriced = state.price("alpha")
        assert repriced.execution_time > prices["alpha"].execution_time
        assert repriced.loads == prices["alpha"].loads

    def test_only_priced_message_sizes_keep_a_matrix(
        self, fleet_network, tenant_workflows
    ):
        state = FleetState(fleet_network)
        sizes = {"alpha": 1e4, "beta": 2e4, "gamma": 3e4}
        for name, bits in sizes.items():
            cycles = [op.cycles for op in tenant_workflows[name]]
            place_round_robin(state, name, make_line(name, cycles, bits))
        self.price_everything(state)
        dense = state.router.dense
        assert set(dense.matrices) == set(sizes.values())
        state.remove_tenant("beta")
        assert set(dense.matrices) == {1e4, 3e4}
        state.update_tenant_workflow(
            "gamma", make_line("gamma", [15e6] * 4, 4e4)
        )
        assert set(dense.matrices) == {1e4}
        self.price_everything(state)
        assert set(dense.matrices) == {1e4, 4e4}
