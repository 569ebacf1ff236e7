"""Unit tests for the JSON codec (round-trips and error handling)."""

import json

import pytest

from repro.core.mapping import Deployment
from repro.io.json_codec import (
    CodecError,
    deployment_from_dict,
    deployment_to_dict,
    dump_instance,
    load_instance,
    network_from_dict,
    network_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)


class TestWorkflowRoundTrip:
    def test_line(self, line3):
        restored = workflow_from_dict(workflow_to_dict(line3))
        assert restored.name == line3.name
        assert restored.operation_names == line3.operation_names
        assert [op.cycles for op in restored] == [op.cycles for op in line3]
        assert [m.pair for m in restored.messages] == [
            m.pair for m in line3.messages
        ]

    def test_decision_nodes_and_probabilities(self, xor_diamond):
        restored = workflow_from_dict(workflow_to_dict(xor_diamond))
        assert restored.operation("choice").kind.value == "xor"
        assert restored.message("choice", "left").probability == 0.7
        restored.validate_xor_probabilities()

    def test_generated_graph_round_trip(self):
        from repro.core.validation import check_well_formed
        from repro.workloads.generator import (
            GraphStructure,
            random_graph_workflow,
        )

        workflow = random_graph_workflow(20, GraphStructure.BUSHY, seed=5)
        restored = workflow_from_dict(workflow_to_dict(workflow))
        assert check_well_formed(restored).ok
        assert len(restored) == 20

    def test_is_json_serialisable(self, xor_diamond):
        json.dumps(workflow_to_dict(xor_diamond))


class TestNetworkRoundTrip:
    def test_bus(self, bus3):
        restored = network_from_dict(network_to_dict(bus3))
        assert restored.topology_kind == "bus"
        assert restored.server_names == bus3.server_names
        assert restored.is_uniform_bus()
        assert restored.uniform_speed_bps == 100e6

    def test_line_with_propagation(self):
        from repro.network.topology import line_network

        network = line_network([1e9, 2e9], 5e6, propagation_s=0.01)
        restored = network_from_dict(network_to_dict(network))
        assert restored.link("S1", "S2").propagation_s == 0.01


class TestDeploymentRoundTrip:
    def test_round_trip(self):
        deployment = Deployment({"A": "S1", "B": "S2"})
        restored = deployment_from_dict(deployment_to_dict(deployment))
        assert restored == deployment


class TestErrorHandling:
    def test_wrong_format_rejected(self, line3):
        document = workflow_to_dict(line3)
        with pytest.raises(CodecError):
            network_from_dict(document)

    def test_missing_field_rejected(self, line3):
        document = workflow_to_dict(line3)
        del document["operations"]
        with pytest.raises(CodecError):
            workflow_from_dict(document)

    def test_unknown_kind_rejected(self, line3):
        document = workflow_to_dict(line3)
        document["operations"][0]["kind"] = "quantum"
        with pytest.raises(CodecError):
            workflow_from_dict(document)

    def test_unsupported_version_rejected(self, line3):
        document = workflow_to_dict(line3)
        document["version"] = 99
        with pytest.raises(CodecError):
            workflow_from_dict(document)

    @pytest.mark.parametrize(
        "section, field",
        [
            ("operations", "cycles"),
            ("messages", "size_bits"),
            ("messages", "probability"),
        ],
    )
    @pytest.mark.parametrize("value", ["fast", None, [1]])
    def test_non_numeric_workflow_field_rejected(
        self, line3, section, field, value
    ):
        document = workflow_to_dict(line3)
        document[section][0][field] = value
        with pytest.raises(CodecError, match=field):
            workflow_from_dict(document)

    @pytest.mark.parametrize(
        "section, field",
        [
            ("servers", "power_hz"),
            ("links", "speed_bps"),
            ("links", "propagation_s"),
        ],
    )
    @pytest.mark.parametrize("value", ["fast", None, {"x": 1}])
    def test_non_numeric_network_field_rejected(
        self, bus3, section, field, value
    ):
        document = network_to_dict(bus3)
        document[section][0][field] = value
        with pytest.raises(CodecError, match=field):
            network_from_dict(document)

    @pytest.mark.parametrize("field", ["operations", "messages"])
    def test_workflow_section_that_is_not_a_list_rejected(self, line3, field):
        document = workflow_to_dict(line3)
        document[field] = 5
        with pytest.raises(CodecError, match=field):
            workflow_from_dict(document)

    @pytest.mark.parametrize("field", ["servers", "links"])
    def test_network_section_that_is_not_a_list_rejected(self, bus3, field):
        document = network_to_dict(bus3)
        document[field] = {"S1": 1e9}
        with pytest.raises(CodecError, match=field):
            network_from_dict(document)

    def test_operation_that_is_not_an_object_rejected(self, line3):
        document = workflow_to_dict(line3)
        document["operations"][0] = 5
        with pytest.raises(CodecError, match="name"):
            workflow_from_dict(document)

    def test_bad_assignments_rejected(self):
        with pytest.raises(CodecError):
            deployment_from_dict(
                {"format": "deployment", "version": 1, "assignments": [1, 2]}
            )

    def test_structural_errors_surface_as_workflow_errors(self, line3):
        from repro.exceptions import DuplicateOperationError

        document = workflow_to_dict(line3)
        document["operations"].append(document["operations"][0])
        with pytest.raises(DuplicateOperationError):
            workflow_from_dict(document)


class TestInstanceBundles:
    def test_round_trip_without_deployment(self, line3, bus3, tmp_path):
        path = tmp_path / "instance.json"
        dump_instance(path, line3, bus3)
        workflow, network, deployment = load_instance(path)
        assert workflow.operation_names == line3.operation_names
        assert network.server_names == bus3.server_names
        assert deployment is None

    def test_round_trip_with_deployment(self, line3, bus3, tmp_path):
        path = tmp_path / "instance.json"
        original = Deployment.all_on_one(line3, "S2")
        dump_instance(path, line3, bus3, original)
        workflow, network, deployment = load_instance(path)
        assert deployment == original
        deployment.validate(workflow, network)

    def test_costs_survive_the_round_trip(self, line3, bus3, tmp_path):
        """The decisive property: identical costs before and after."""
        from repro.core.cost import CostModel

        path = tmp_path / "instance.json"
        original = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        dump_instance(path, line3, bus3, original)
        workflow, network, deployment = load_instance(path)
        before = CostModel(line3, bus3).evaluate(original)
        after = CostModel(workflow, network).evaluate(deployment)
        assert after.execution_time == pytest.approx(before.execution_time)
        assert after.time_penalty == pytest.approx(before.time_penalty)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(CodecError):
            load_instance(path)

    def test_wrong_bundle_format_rejected(self, line3, tmp_path):
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(workflow_to_dict(line3)))
        with pytest.raises(CodecError):
            load_instance(path)
