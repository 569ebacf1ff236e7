"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io.json_codec import load_instance, network_to_dict
from tests.service.test_checkpoint import CORRUPTIONS, corrupt_checkpoint


@pytest.fixture
def instance_path(tmp_path):
    """A generated hybrid instance bundle on disk."""
    path = tmp_path / "instance.json"
    code = main(
        [
            "generate",
            "--workflow",
            "hybrid",
            "--operations",
            "12",
            "--servers",
            "3",
            "--bus-speed",
            "1e7",
            "--seed",
            "5",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "generate",
            "deploy",
            "compare",
            "simulate",
            "experiment",
            "quality",
            "analyze",
            "algorithms",
            "fleet",
        ):
            assert command in text

    def test_missing_command_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestGenerate(object):
    def test_writes_valid_bundle(self, instance_path):
        workflow, network, deployment = load_instance(instance_path)
        assert len(workflow) == 12
        assert len(network) == 3
        assert deployment is None
        assert network.uniform_speed_bps == 1e7

    def test_deterministic(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(
                [
                    "generate",
                    "--operations",
                    "8",
                    "--servers",
                    "2",
                    "--seed",
                    "9",
                    "--output",
                    str(path),
                ]
            )
            paths.append(json.loads(path.read_text()))
        assert paths[0] == paths[1]


class TestDeploy:
    def test_prints_costs_and_mapping(self, instance_path, capsys):
        assert main(["deploy", "--instance", str(instance_path)]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "mapping:" in out

    def test_save_roundtrips(self, instance_path):
        main(["deploy", "--instance", str(instance_path), "--save"])
        workflow, network, deployment = load_instance(instance_path)
        assert deployment is not None
        deployment.validate(workflow, network)

    def test_dot_output(self, instance_path, tmp_path):
        dot_path = tmp_path / "deployment.dot"
        main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--dot",
                str(dot_path),
            ]
        )
        assert dot_path.read_text().startswith("digraph")

    def test_unknown_algorithm_is_an_error(self, instance_path, capsys):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--algorithm",
                "Nonsense",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_plan_option_is_gone(self, instance_path, capsys):
        # sharded runs are always seeded restarts; --plan is a usage error
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "deploy",
                    "--instance",
                    str(instance_path),
                    "--algorithm",
                    "Genetic",
                    "--workers",
                    "2",
                    "--plan",
                    "islands",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --plan" in capsys.readouterr().err


class TestTopologyOverride:
    SNDLIB = (
        "NODES (\n"
        "  A ( 0.0 0.0 )\n"
        "  B ( 1.0 0.0 )\n"
        "  C ( 0.0 1.0 )\n"
        ")\n"
        "LINKS (\n"
        "  L1 ( A B ) 100.0\n"
        "  L2 ( B C ) 50.0\n"
        "  L3 ( C A ) 10.0\n"
        ")\n"
    )

    def topology_path(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text(self.SNDLIB)
        return path

    def test_deploy_onto_topology_file(
        self, instance_path, tmp_path, capsys
    ):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--topology",
                str(self.topology_path(tmp_path)),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the mapping is printed against the topology's servers, not
        # the instance bundle's S1..S3
        assert "A:" in out and "B:" in out and "C:" in out

    def test_compare_onto_topology_file(
        self, instance_path, tmp_path, capsys
    ):
        code = main(
            [
                "compare",
                "--instance",
                str(instance_path),
                "--topology",
                str(self.topology_path(tmp_path)),
                "--algorithms",
                "FairLoad",
            ]
        )
        assert code == 0
        assert "topo" in capsys.readouterr().out

    def test_missing_topology_is_one_line_error(
        self, instance_path, tmp_path, capsys
    ):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--topology",
                str(tmp_path / "nope.txt"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, field",
        [("servers", "power_hz"), ("links", "speed_bps")],
    )
    def test_non_numeric_json_topology_is_one_line_error(
        self, instance_path, tmp_path, capsys, section, field
    ):
        _workflow, network, _deployment = load_instance(instance_path)
        document = network_to_dict(network)
        document[section][0][field] = "fast"
        path = tmp_path / "net.json"
        path.write_text(json.dumps(document))
        code = main(
            ["deploy", "--instance", str(instance_path), "--topology", str(path)]
        )
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:") and field in err_lines[0]

    def test_malformed_topology_is_one_line_error(
        self, instance_path, tmp_path, capsys
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text("NODES (\n A ( x y )\n)\n")
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--topology",
                str(bad),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err
        assert "Traceback" not in err


class TestCompare:
    def test_table_and_plot(self, instance_path, capsys):
        code = main(
            ["compare", "--instance", str(instance_path), "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FairLoad" in out and "HeavyOps-LargeMsgs" in out
        assert "legend:" in out

    def test_custom_suite(self, instance_path, capsys):
        main(
            [
                "compare",
                "--instance",
                str(instance_path),
                "--algorithms",
                "FairLoad",
                "Random",
            ]
        )
        out = capsys.readouterr().out
        assert "Random" in out
        assert "HeavyOps-LargeMsgs" not in out


class TestSimulate:
    def test_requires_deployment(self, instance_path, capsys):
        code = main(["simulate", "--instance", str(instance_path)])
        assert code == 2
        assert "no deployment" in capsys.readouterr().err

    def test_simulates_deployed_instance(self, instance_path, capsys):
        main(["deploy", "--instance", str(instance_path), "--save"])
        capsys.readouterr()
        code = main(
            [
                "simulate",
                "--instance",
                str(instance_path),
                "--runs",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic Texecute" in out
        assert "measured mean makespan" in out

    def test_concurrency_flag(self, instance_path, capsys):
        main(["deploy", "--instance", str(instance_path), "--save"])
        capsys.readouterr()
        code = main(
            [
                "simulate",
                "--instance",
                str(instance_path),
                "--runs",
                "20",
                "--concurrency",
                "1",
            ]
        )
        assert code == 0


class TestExperimentAndQuality:
    @pytest.mark.parametrize("klass", ("a", "b"))
    def test_class_a_and_b_sweeps(self, klass, capsys):
        code = main(
            [
                "experiment",
                "--klass",
                klass,
                "--operations",
                "6",
                "--servers",
                "2",
                "--repetitions",
                "1",
                "--metric",
                "penalty",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"{klass.upper()}: " in out  # sweep labels
        assert "FairLoad" in out

    def test_class_c_experiment(self, capsys):
        code = main(
            [
                "experiment",
                "--klass",
                "c",
                "--operations",
                "8",
                "--servers",
                "2",
                "--repetitions",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HeavyOps-LargeMsgs" in out

    def test_quality(self, capsys):
        code = main(
            [
                "quality",
                "--operations",
                "6",
                "--servers",
                "2",
                "--experiments",
                "1",
                "--samples",
                "50",
            ]
        )
        assert code == 0
        assert "worst_exec_dev" in capsys.readouterr().out


class TestAnalyze:
    def test_statistics_and_regions(self, instance_path, capsys):
        code = main(["analyze", "--instance", str(instance_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "decision_fraction" in out
        assert "regions:" in out

    def test_critical_path_for_deployed(self, instance_path, capsys):
        main(["deploy", "--instance", str(instance_path), "--save"])
        capsys.readouterr()
        main(["analyze", "--instance", str(instance_path)])
        assert "critical path" in capsys.readouterr().out

    def test_dot_export(self, instance_path, tmp_path, capsys):
        dot_path = tmp_path / "workflow.dot"
        main(
            [
                "analyze",
                "--instance",
                str(instance_path),
                "--dot",
                str(dot_path),
            ]
        )
        assert dot_path.read_text().startswith("digraph")


class TestFailover:
    def test_requires_deployment(self, instance_path, capsys):
        code = main(["failover", "--instance", str(instance_path)])
        assert code == 2
        assert "no deployment" in capsys.readouterr().err

    def test_prints_per_server_impact(self, instance_path, capsys):
        main(["deploy", "--instance", str(instance_path), "--save"])
        capsys.readouterr()
        code = main(["failover", "--instance", str(instance_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "failed_server" in out
        assert "scale_up" in out

    def test_redeploy_policy(self, instance_path, capsys):
        main(["deploy", "--instance", str(instance_path), "--save"])
        capsys.readouterr()
        code = main(
            [
                "failover",
                "--instance",
                str(instance_path),
                "--redeploy",
                "FairLoad",
            ]
        )
        assert code == 0


class TestFleet:
    def test_replays_builtin_scenario(self, capsys):
        code = main(["fleet", "--scenario", "steady", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'steady'" in out
        assert "fleet metrics" in out
        assert "final combined per-server loads" in out

    def test_log_flag_prints_decision_log(self, capsys):
        code = main(["fleet", "--scenario", "steady", "--seed", "1", "--log"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet decision log" in out
        assert "admitted" in out

    def test_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--scenario", "nope"])

    def test_explicit_replay_action_matches_default(self, capsys):
        assert main(["fleet", "replay", "--scenario", "steady"]) == 0
        explicit = capsys.readouterr().out
        assert main(["fleet", "--scenario", "steady"]) == 0
        assert capsys.readouterr().out == explicit


class TestFleetDurability:
    def test_checkpoint_then_restore_resume(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        code = main(
            [
                "fleet",
                "checkpoint",
                "--scenario",
                "churn",
                "--seed",
                "3",
                "--stop-after",
                "10",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10 events processed" in out and "15 pending" in out
        assert path.exists()

        code = main(
            ["fleet", "restore", "--checkpoint", str(path), "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10 events replayed and verified" in out
        assert "resumed: processed 15 pending events" in out
        assert "fleet metrics" in out

    def test_checkpoint_full_scenario_has_no_pending(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "fleet",
                    "checkpoint",
                    "--scenario",
                    "steady",
                    "--checkpoint",
                    str(path),
                ]
            )
            == 0
        )
        assert "0 pending" in capsys.readouterr().out

    def test_missing_checkpoint_file_is_one_line_error(
        self, tmp_path, capsys
    ):
        """Satellite: ValidationError exits non-zero with one line on
        stderr, never a traceback."""
        code = main(
            [
                "fleet",
                "restore",
                "--checkpoint",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [
            line for line in captured.err.splitlines() if line.strip()
        ]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_tampered_checkpoint_is_one_line_error(self, tmp_path, capsys):
        import json

        path = tmp_path / "fleet.json"
        main(
            [
                "fleet",
                "checkpoint",
                "--scenario",
                "steady",
                "--checkpoint",
                str(path),
            ]
        )
        capsys.readouterr()
        document = json.loads(path.read_text())
        document["log"][0]["action"] = "tampered"
        path.write_text(json.dumps(document))
        code = main(["fleet", "restore", "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "diverged" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_malformed_checkpoint_field_is_one_line_error(
        self, tmp_path, capsys, corruption
    ):
        path = tmp_path / "fleet.json"
        main(
            [
                "fleet",
                "checkpoint",
                "--scenario",
                "steady",
                "--checkpoint",
                str(path),
            ]
        )
        capsys.readouterr()
        corrupt_checkpoint(path, corruption)
        code = main(["fleet", "restore", "--checkpoint", str(path)])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "malformed checkpoint" in err_lines[0]

    def test_stop_after_out_of_range_is_one_line_error(
        self, tmp_path, capsys
    ):
        """Satellite: ServiceError exits non-zero with one line."""
        code = main(
            [
                "fleet",
                "checkpoint",
                "--scenario",
                "steady",
                "--stop-after",
                "999",
                "--checkpoint",
                str(tmp_path / "fleet.json"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "--stop-after 999" in captured.err
        assert "Traceback" not in captured.err

    def test_checkpoint_without_path_is_one_line_error(self, capsys):
        code = main(["fleet", "checkpoint", "--scenario", "steady"])
        assert code == 1
        assert "needs --checkpoint" in capsys.readouterr().err


def test_algorithms_lists_registry(capsys):
    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    for name in ("FairLoad", "HeavyOps-LargeMsgs", "BranchAndBound", "Genetic"):
        assert name in out


def test_algorithms_lists_class_and_description(capsys):
    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    assert "description" in out
    # class names and the first docstring line ride along with each name
    assert "SimulatedAnnealing" in out
    assert "Metropolis search over single-operation moves." in out


class TestBudgetFlags:
    def test_deploy_with_binding_max_evals(self, instance_path, capsys):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--algorithm",
                "SimulatedAnnealing",
                "--max-evals",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search:" in out
        assert "stopped: max-evals" in out

    def test_deploy_with_generous_deadline_exhausts(
        self, instance_path, capsys
    ):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--algorithm",
                "HillClimbing",
                "--deadline-ms",
                "60000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped: exhausted" in out

    def test_deploy_bad_budget_is_an_error(self, instance_path, capsys):
        code = main(
            [
                "deploy",
                "--instance",
                str(instance_path),
                "--max-evals",
                "0",
            ]
        )
        assert code == 1
        assert "max_evals must be >= 1" in capsys.readouterr().err

    def test_compare_reports_budgeted_searches(self, instance_path, capsys):
        code = main(
            [
                "compare",
                "--instance",
                str(instance_path),
                "--algorithms",
                "SimulatedAnnealing",
                "HillClimbing",
                "--max-evals",
                "25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search[SimulatedAnnealing]:" in out
        assert "search[HillClimbing]:" in out
