"""Unit tests for the server-failure analysis extension."""

import pytest

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.exceptions import (
    DisconnectedNetworkError,
    NetworkError,
    UnknownServerError,
)
from repro.experiments.failover import (
    analyze_failure,
    failover_table,
    replace_orphans,
)
from repro.network.topology import bus_network, line_network, remove_server


class TestRemoveServer:
    def test_bus_stays_connected(self, bus5):
        survivor = remove_server(bus5, "S3")
        assert len(survivor) == 4
        assert "S3" not in survivor
        assert survivor.is_connected()
        assert survivor.is_uniform_bus()

    def test_interior_line_server_disconnects(self, chain3):
        survivor = remove_server(chain3, "S2")
        assert not survivor.is_connected()

    def test_endpoint_line_server_keeps_chain(self, chain3):
        survivor = remove_server(chain3, "S1")
        assert survivor.is_connected()
        assert survivor.is_line()

    def test_unknown_server_rejected(self, bus3):
        with pytest.raises(UnknownServerError):
            remove_server(bus3, "S9")

    def test_last_server_protected(self):
        network = bus_network([1e9], speed_bps=1e6)
        with pytest.raises(NetworkError):
            remove_server(network, "S1")

    def test_original_untouched(self, bus3):
        remove_server(bus3, "S1")
        assert "S1" in bus3 and len(bus3) == 3


class TestReplaceOrphans:
    def test_survivors_stay_put(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        failed = "S3"
        survivor = remove_server(bus3, failed)
        recovered = replace_orphans(line5, survivor, deployment, failed)
        for operation, server in deployment:
            if server != failed:
                assert recovered.server_of(operation) == server

    def test_orphans_all_rehomed(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        survivor = remove_server(bus3, "S3")
        recovered = replace_orphans(line5, survivor, deployment, "S3")
        recovered.validate(line5, survivor)
        assert "S3" not in recovered.as_dict().values()

    def test_rehoming_is_load_aware(self, line5):
        """Orphans go to the emptiest surviving server first."""
        network = bus_network([1e9, 1e9, 1e9], speed_bps=100e6)
        deployment = Deployment(
            {"O1": "S1", "O2": "S1", "O3": "S1", "O4": "S1", "O5": "S3"}
        )
        survivor = remove_server(network, "S3")
        recovered = replace_orphans(line5, survivor, deployment, "S3")
        # S2 hosts nothing; the orphan O5 must land there, not on S1
        assert recovered.server_of("O5") == "S2"


class TestAnalyzeFailure:
    def test_report_shape(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        report = analyze_failure(line5, bus3, deployment, "S2")
        assert report.failed_server == "S2"
        assert set(report.orphaned_operations) == set(
            deployment.operations_on("S2")
        )
        report.recovered.validate(line5, remove_server(bus3, "S2"))
        assert report.execution_scale_up > 0
        assert report.peak_load_scale_up > 0

    def test_work_is_conserved_and_peak_bounded_below(self, line5, bus5):
        """Cycles are conserved across recovery, and the busiest survivor
        carries at least the capacity-proportional share (pigeonhole).

        Note the peak *can* drop when the failed server was a slow
        bottleneck and its orphans land on faster survivors -- so the
        naive 'peak never improves' claim is wrong; these bounds hold.
        """
        deployment = FairLoad().deploy(line5, bus5)
        total_cycles = line5.total_cycles
        for server in bus5.server_names:
            report = analyze_failure(line5, bus5, deployment, server)
            survivor = remove_server(bus5, server)
            recovered_cycles = sum(
                report.after.loads[s.name] * s.power_hz for s in survivor
            )
            assert recovered_cycles == pytest.approx(total_cycles), server
            assert max(report.after.loads.values()) >= (
                total_cycles / survivor.total_power_hz - 1e-12
            ), server

    def test_full_redeployment_policy(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        report = analyze_failure(
            line5, bus3, deployment, "S3", algorithm=HeavyOpsLargeMsgs()
        )
        report.recovered.validate(line5, remove_server(bus3, "S3"))

    def test_redeployment_at_least_as_good_as_patching(self, line5, bus5):
        """Full re-deployment with Fair Load cannot be less fair than
        orphan patching (it re-optimises everything)."""
        deployment = FairLoad().deploy(line5, bus5)
        patched = analyze_failure(line5, bus5, deployment, "S1")
        redeployed = analyze_failure(
            line5, bus5, deployment, "S1", algorithm=FairLoad()
        )
        assert (
            redeployed.after.time_penalty
            <= patched.after.time_penalty + 1e-12
        )

    def test_unknown_server_rejected(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        with pytest.raises(UnknownServerError):
            analyze_failure(line5, bus3, deployment, "S9")

    def test_disconnecting_failure_raises(self, line5, chain3):
        from repro.algorithms.line_line import LineLine

        deployment = LineLine().deploy(line5, chain3)
        with pytest.raises(DisconnectedNetworkError):
            analyze_failure(line5, chain3, deployment, "S2")


class TestFailoverTable:
    def test_one_row_per_server(self, line5, bus3):
        deployment = FairLoad().deploy(line5, bus3)
        table = failover_table(line5, bus3, deployment)
        assert len(table) == 3
        text = table.render()
        for server in bus3.server_names:
            assert server in text
