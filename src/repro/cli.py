"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``
    Create a problem instance (workflow + network) from the section 4.1
    generators and write it as a JSON bundle.
``deploy``
    Run one algorithm on an instance; print the cost breakdown and
    optionally store the deployment back into the bundle or emit DOT.
``compare``
    Run an algorithm suite on an instance; print the comparison table
    and an ASCII scatter of the two metrics.
``simulate``
    Execute a deployed instance in the discrete-event simulator and
    compare measured makespans with the analytic prediction.
``experiment``
    Run the Class A/B/C sweeps of section 4 and print their tables.
``quality``
    Run the deviation-from-sampled-best protocol of section 4.1.
``analyze``
    Structural statistics, region tree and (for deployed instances) the
    critical path.
``fleet``
    The fleet service tier. ``repro fleet`` (or ``repro fleet replay``)
    replays a scripted multi-tenant scenario through the
    :class:`~repro.service.controller.FleetController` and prints the
    metrics table; ``repro fleet checkpoint`` writes a durable
    checkpoint (optionally stopping mid-scenario, remaining events
    stored as pending); ``repro fleet restore`` rebuilds a controller
    from a checkpoint with replay verification (``--resume`` also
    processes the pending events); ``repro fleet serve`` runs the
    stdlib REST façade over a priority work queue.
``algorithms``
    List every registered deployment algorithm.

Instances are the JSON bundles of :mod:`repro.io.json_codec`; every
command that reads one accepts ``--instance PATH``.
"""

from __future__ import annotations

import argparse

import sys
from typing import Sequence

from repro.algorithms.base import algorithm_registry, get_algorithm
from repro.algorithms.runtime import SearchBudget
from repro.core.analysis import (
    critical_path,
    region_tree,
    workflow_statistics,
)
from repro.core.cost import CostModel
from repro.exceptions import ReproError
from repro.experiments.classes import (
    class_a_configs,
    class_b_configs,
    class_c_configs,
)
from repro.experiments.quality import QualityProtocol
from repro.experiments.reporting import ascii_scatter
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    ExperimentConfig,
    ExperimentRunner,
)
from repro.io.dot import deployment_to_dot, workflow_to_dot
from repro.io.json_codec import dump_instance, load_instance
from repro.simulation.engine import SimulationEngine
from repro.tables import TextTable, format_seconds

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_budget_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the anytime-search budget flags shared by deploy/compare."""
    command.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget per search; iterative algorithms return "
        "their best-so-far deployment when it fires",
    )
    command.add_argument(
        "--max-evals",
        type=int,
        default=None,
        metavar="K",
        help="objective-evaluation budget per search",
    )


def _budget_from_args(args) -> SearchBudget | None:
    """A SearchBudget from the CLI flags, or None when none were given."""
    if args.deadline_ms is None and args.max_evals is None:
        return None
    return SearchBudget(
        max_evals=args.max_evals,
        deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
    )


def _add_topology_argument(command: argparse.ArgumentParser) -> None:
    """Attach the topology-override flag shared by deploy/compare."""
    command.add_argument(
        "--topology",
        metavar="PATH",
        default=None,
        help="deploy onto this topology file (SNDlib-style text or a "
        "JSON network document) instead of the instance's network",
    )


def _resolve_network(args, network):
    """The instance's network, or the ``--topology`` override."""
    if getattr(args, "topology", None) is None:
        return network
    from repro.scenarios import load_topology

    return load_topology(args.topology)


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Efficient Deployment of Web Service Workflows (ICDE 2007) -- "
            "reproduction toolkit"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a problem instance JSON bundle"
    )
    generate.add_argument(
        "--workflow",
        choices=("line", "bushy", "lengthy", "hybrid"),
        default="line",
        help="workflow shape (default: line)",
    )
    generate.add_argument("--operations", type=int, default=19, metavar="M")
    generate.add_argument("--servers", type=int, default=5, metavar="N")
    generate.add_argument(
        "--network", choices=("bus", "line"), default="bus"
    )
    generate.add_argument(
        "--bus-speed",
        type=float,
        default=None,
        metavar="BPS",
        help="pin the bus/link speed instead of sampling Table 6",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--output", required=True, metavar="PATH", help="bundle destination"
    )

    deploy = commands.add_parser(
        "deploy", help="run one algorithm on an instance"
    )
    deploy.add_argument("--instance", required=True, metavar="PATH")
    deploy.add_argument(
        "--algorithm",
        default="HeavyOps-LargeMsgs",
        metavar="NAME",
        help="registry name, or NAME@SEED for a seeded refinement "
        "(e.g. HillClimbing@FL-TieResolver2)",
    )
    deploy.add_argument("--seed", type=int, default=0)
    _add_topology_argument(deploy)
    _add_budget_arguments(deploy)
    deploy.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run N seeded restarts of the search in worker processes "
        "(default: 1, the exact serial run)",
    )
    deploy.add_argument(
        "--portfolio",
        nargs="*",
        metavar="SPEC",
        default=None,
        help="race a portfolio of algorithms under the shared budget "
        "instead of --algorithm; without SPECs, use the built-in line-up",
    )
    deploy.add_argument(
        "--save",
        action="store_true",
        help="write the deployment back into the instance bundle",
    )
    deploy.add_argument(
        "--dot",
        metavar="PATH",
        default=None,
        help="also write a Graphviz DOT rendering of the deployment",
    )

    compare = commands.add_parser(
        "compare", help="run an algorithm suite on an instance"
    )
    compare.add_argument("--instance", required=True, metavar="PATH")
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=list(DEFAULT_ALGORITHMS),
        metavar="NAME",
    )
    compare.add_argument("--seed", type=int, default=0)
    _add_topology_argument(compare)
    _add_budget_arguments(compare)
    compare.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run each algorithm's search across N worker processes",
    )
    compare.add_argument(
        "--plot", action="store_true", help="render an ASCII scatter"
    )

    simulate = commands.add_parser(
        "simulate", help="execute a deployed instance in the simulator"
    )
    simulate.add_argument("--instance", required=True, metavar="PATH")
    simulate.add_argument("--runs", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--concurrency",
        type=int,
        default=None,
        metavar="K",
        help="server concurrency (default: unbounded, the paper's model)",
    )

    experiment = commands.add_parser(
        "experiment", help="run the Class A/B/C sweeps"
    )
    experiment.add_argument(
        "--klass", choices=("a", "b", "c"), required=True,
        help="experiment class (section 4.1)",
    )
    experiment.add_argument(
        "--workflow",
        choices=("line", "bushy", "lengthy", "hybrid"),
        default="line",
    )
    experiment.add_argument("--operations", type=int, default=19)
    experiment.add_argument("--servers", type=int, default=5)
    experiment.add_argument("--repetitions", type=int, default=5)
    experiment.add_argument(
        "--metric",
        choices=("execution", "penalty", "objective"),
        default="execution",
    )

    quality = commands.add_parser(
        "quality", help="deviation-from-sampled-best protocol (section 4.1)"
    )
    quality.add_argument(
        "--workflow",
        choices=("line", "bushy", "lengthy", "hybrid"),
        default="line",
    )
    quality.add_argument("--operations", type=int, default=19)
    quality.add_argument("--servers", type=int, default=5)
    quality.add_argument("--bus-speed", type=float, default=1e6)
    quality.add_argument("--experiments", type=int, default=10)
    quality.add_argument("--samples", type=int, default=2_000)
    quality.add_argument("--seed", type=int, default=55)

    analyze = commands.add_parser(
        "analyze", help="structural and cost analysis of an instance"
    )
    analyze.add_argument("--instance", required=True, metavar="PATH")
    analyze.add_argument(
        "--dot",
        metavar="PATH",
        default=None,
        help="write a Graphviz DOT rendering of the workflow",
    )

    failover = commands.add_parser(
        "failover", help="single-server failure impact of a deployed instance"
    )
    failover.add_argument("--instance", required=True, metavar="PATH")
    failover.add_argument(
        "--redeploy",
        metavar="ALGORITHM",
        default=None,
        help="recover by full re-deployment with this algorithm instead of "
        "minimal orphan re-homing",
    )

    figures = commands.add_parser(
        "figures", help="reproduce every paper figure/table into a directory"
    )
    figures.add_argument(
        "--output", required=True, metavar="DIR", help="destination directory"
    )
    figures.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="protocol sizes (paper = 50 experiments x 32000 samples)",
    )

    claims = commands.add_parser(
        "claims", help="re-verify every qualitative claim of the paper"
    )
    claims.add_argument("--repetitions", type=int, default=8)
    claims.add_argument("--seed", type=int, default=42)

    from repro.service.scenarios import builtin_scenarios

    fleet = commands.add_parser(
        "fleet",
        help="replay, checkpoint, restore, or serve a fleet scenario",
    )
    fleet.add_argument(
        "action",
        nargs="?",
        default="replay",
        choices=("replay", "checkpoint", "restore", "serve"),
        help="what to do with the fleet (default: replay)",
    )
    fleet.add_argument(
        "--scenario",
        choices=builtin_scenarios(),
        default="steady",
        help="builtin scenario to replay (default: steady)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--algorithm",
        default=None,
        metavar="NAME",
        help="override the scenario's placement algorithm",
    )
    fleet.add_argument(
        "--log",
        action="store_true",
        help="also print the full fleet decision log",
    )
    fleet.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file to write (checkpoint action) or read "
        "(restore/serve actions)",
    )
    fleet.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint action: process only the first N scenario "
        "events; the rest are stored as pending",
    )
    fleet.add_argument(
        "--resume",
        action="store_true",
        help="restore action: also process the checkpoint's pending "
        "events after the verified restore",
    )
    fleet.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve action: bind address (default: 127.0.0.1)",
    )
    fleet.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="serve action: bind port (default: 0, pick a free port)",
    )

    commands.add_parser("algorithms", help="list registered algorithms")
    return parser


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    config = ExperimentConfig(
        workflow_kind=args.workflow,
        num_operations=args.operations,
        num_servers=args.servers,
        network_kind=args.network,
        bus_speed_bps=args.bus_speed,
        repetitions=1,
        seed=args.seed,
    )
    workflow, network = config.instance(0)
    dump_instance(args.output, workflow, network)
    print(
        f"wrote {args.output}: {workflow.name} ({len(workflow)} ops), "
        f"{network.name} ({len(network)} servers)"
    )
    return 0


def _cmd_deploy(args) -> int:
    from repro.parallel import deploy_parallel, race_portfolio

    workflow, network, _ = load_instance(args.instance)
    network = _resolve_network(args, network)
    model = CostModel(workflow, network)
    budget = _budget_from_args(args)
    if args.portfolio is not None:
        title_name = "portfolio"
        outcome = race_portfolio(
            workflow,
            network,
            portfolio=args.portfolio or None,
            cost_model=model,
            workers=args.workers,
            seed=args.seed,
            budget=budget,
        )
    else:
        title_name = args.algorithm
        outcome = deploy_parallel(
            args.algorithm,
            workflow,
            network,
            cost_model=model,
            workers=args.workers,
            seed=args.seed,
            budget=budget,
        )
    deployment, report = outcome.best, outcome.report
    cost = model.evaluate(deployment)
    table = TextTable(
        ["metric", "value"], title=f"{title_name} on {workflow.name}"
    )
    table.add_row(["execution time", format_seconds(cost.execution_time)])
    table.add_row(["time penalty", format_seconds(cost.time_penalty)])
    table.add_row(["objective", format_seconds(cost.objective)])
    print(table)
    if report is not None:
        print(f"\nsearch: {report.describe()}")
    if outcome.parallel.plan != "serial":
        print(f"parallel: {outcome.parallel.describe()}")
    print("\nmapping:")
    for server in network.server_names:
        operations = deployment.operations_on(server)
        print(f"  {server}: {', '.join(operations) or '-'}")
    if args.save:
        dump_instance(args.instance, workflow, network, deployment)
        print(f"\ndeployment saved into {args.instance}")
    if args.dot:
        from pathlib import Path

        Path(args.dot).write_text(
            deployment_to_dot(workflow, network, deployment)
        )
        print(f"DOT written to {args.dot}")
    return 0


def _cmd_compare(args) -> int:
    import time

    from repro.parallel import deploy_parallel

    workflow, network, _ = load_instance(args.instance)
    network = _resolve_network(args, network)
    model = CostModel(workflow, network)
    budget = _budget_from_args(args)
    points: dict[str, list[tuple[float, float]]] = {}
    searches: list[tuple[str, str]] = []
    table = TextTable(
        ["algorithm", "Texecute", "TimePenalty", "objective", "wall-clock"],
        title=f"{workflow.name} on {network.name}",
    )
    for name in args.algorithms:
        started = time.perf_counter()
        outcome = deploy_parallel(
            name,
            workflow,
            network,
            cost_model=model,
            workers=args.workers,
            seed=args.seed,
            budget=budget,
        )
        elapsed = time.perf_counter() - started
        deployment, report = outcome.best, outcome.report
        cost = model.evaluate(deployment)
        points[name] = [(cost.execution_time, cost.time_penalty)]
        if budget is not None and report is not None:
            searches.append((name, report.describe()))
        table.add_row(
            [
                name,
                format_seconds(cost.execution_time),
                format_seconds(cost.time_penalty),
                format_seconds(cost.objective),
                format_seconds(elapsed),
            ]
        )
    print(table)
    for name, described in searches:
        print(f"search[{name}]: {described}")
    if args.plot:
        print()
        print(ascii_scatter(points, title="execution time vs time penalty"))
    return 0


def _cmd_simulate(args) -> int:
    workflow, network, deployment = load_instance(args.instance)
    if deployment is None:
        print(
            "error: instance has no deployment; run `repro deploy --save` "
            "first",
            file=sys.stderr,
        )
        return 2
    model = CostModel(workflow, network)
    engine = SimulationEngine(
        workflow, network, deployment, server_concurrency=args.concurrency
    )
    results = engine.run_many(args.runs, rng=args.seed)
    makespans = [r.makespan for r in results]
    mean = sum(makespans) / len(makespans)
    analytic = model.execution_time(deployment)
    table = TextTable(
        ["metric", "value"], title=f"{args.runs} simulated executions"
    )
    table.add_row(["analytic Texecute", format_seconds(analytic)])
    table.add_row(["measured mean makespan", format_seconds(mean)])
    table.add_row(["measured min", format_seconds(min(makespans))])
    table.add_row(["measured max", format_seconds(max(makespans))])
    table.add_row(
        [
            "mean queueing delay",
            format_seconds(
                sum(r.total_queueing_delay() for r in results) / len(results)
            ),
        ]
    )
    table.add_row(
        ["mean bits on network", f"{sum(r.bits_sent for r in results) / len(results):,.0f}"]
    )
    print(table)
    return 0


def _cmd_experiment(args) -> int:
    builders = {
        "a": class_a_configs,
        "b": class_b_configs,
        "c": class_c_configs,
    }
    configs = builders[args.klass](
        workflow_kind=args.workflow,
        num_operations=args.operations,
        num_servers=args.servers,
        repetitions=args.repetitions,
    )
    runner = ExperimentRunner(DEFAULT_ALGORITHMS)
    print(runner.sweep_table(configs, metric=args.metric))
    return 0


def _cmd_quality(args) -> int:
    protocol = QualityProtocol(
        algorithms=DEFAULT_ALGORITHMS,
        experiments=args.experiments,
        samples=args.samples,
    )
    config = ExperimentConfig(
        workflow_kind=args.workflow,
        num_operations=args.operations,
        num_servers=args.servers,
        bus_speed_bps=args.bus_speed,
        repetitions=1,
        seed=args.seed,
    )
    print(protocol.run(config).table())
    return 0


def _cmd_analyze(args) -> int:
    workflow, network, deployment = load_instance(args.instance)
    statistics = workflow_statistics(workflow)
    table = TextTable(["statistic", "value"], title=f"{workflow.name}")
    for key, value in statistics.items():
        table.add_row([key, value])
    print(table)

    tree = region_tree(workflow)
    print(
        f"\nregions: {tree.count()} (max nesting depth {tree.depth()})"
    )

    def show(node, indent="  "):
        for child in node.children:
            kind = child.kind.value if child.kind else "?"
            print(f"{indent}{child.split} .. {child.join} [{kind}]")
            show(child, indent + "  ")

    show(tree)

    if deployment is not None:
        model = CostModel(workflow, network)
        path = critical_path(workflow, deployment, model)
        print(
            f"\ncritical path ({format_seconds(path.length_s)}; "
            f"processing {format_seconds(path.processing_s)}, "
            f"communication {format_seconds(path.communication_s)}):"
        )
        print("  " + " -> ".join(path.operations))
    if args.dot:
        from pathlib import Path

        Path(args.dot).write_text(workflow_to_dot(workflow))
        print(f"\nDOT written to {args.dot}")
    return 0


def _cmd_failover(args) -> int:
    from repro.experiments.failover import failover_table

    workflow, network, deployment = load_instance(args.instance)
    if deployment is None:
        print(
            "error: instance has no deployment; run `repro deploy --save` "
            "first",
            file=sys.stderr,
        )
        return 2
    algorithm = None
    if args.redeploy is not None:
        algorithm = get_algorithm(args.redeploy)()
    print(failover_table(workflow, network, deployment, algorithm=algorithm))
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments.figures import reproduce_all

    paths = reproduce_all(args.output, scale=args.scale)
    for path in paths:
        print(f"wrote {path}")
    print(f"\n{len(paths)} files under {args.output}")
    return 0


def _cmd_claims(args) -> int:
    from repro.experiments.claims import verify_claims

    report = verify_claims(repetitions=args.repetitions, seed=args.seed)
    print(report.table())
    return 0 if report.all_pass else 3


def _cmd_fleet(args) -> int:
    dispatch = {
        "replay": _fleet_replay,
        "checkpoint": _fleet_checkpoint,
        "restore": _fleet_restore,
        "serve": _fleet_serve,
    }
    return dispatch[args.action](args)


def _fleet_replay(args) -> int:
    from repro.service.scenarios import build_scenario, replay

    scenario = build_scenario(
        args.scenario, seed=args.seed, algorithm=args.algorithm
    )
    print(
        f"scenario {scenario.name!r} (seed {args.seed}): "
        f"{scenario.description}"
    )
    print(
        f"fleet: {len(scenario.network)} servers, "
        f"{len(scenario.events)} events, "
        f"algorithm {scenario.config.algorithm}"
    )
    controller = replay(scenario)
    if args.log:
        print()
        print(controller.log.to_table())
    print()
    print(controller.metrics().to_table())
    loads = controller.snapshot().loads
    table = TextTable(
        ["server", "load"], title="final combined per-server loads"
    )
    for server, load in loads.items():
        table.add_row([server, format_seconds(load)])
    print()
    print(table)
    return 0


def _require_checkpoint_path(args, action: str) -> str:
    from repro.exceptions import ServiceError

    if not args.checkpoint:
        raise ServiceError(
            f"fleet {action} needs --checkpoint PATH"
        )
    return args.checkpoint


def _fleet_checkpoint(args) -> int:
    from repro.core.clock import StepClock
    from repro.exceptions import ServiceError
    from repro.service.controller import FleetController
    from repro.service.scenarios import build_scenario

    path = _require_checkpoint_path(args, "checkpoint")
    scenario = build_scenario(
        args.scenario, seed=args.seed, algorithm=args.algorithm
    )
    events = scenario.events
    cut = len(events) if args.stop_after is None else args.stop_after
    if not 0 <= cut <= len(events):
        raise ServiceError(
            f"--stop-after {cut} is outside the scenario's "
            f"0..{len(events)} events"
        )
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    for event in events[:cut]:
        controller.handle(event)
    written = controller.checkpoint(path, pending=events[cut:])
    print(
        f"checkpoint written to {written}: scenario {scenario.name!r} "
        f"(seed {args.seed}), {cut} events processed, "
        f"{len(events) - cut} pending"
    )
    return 0


def _fleet_restore(args) -> int:
    from repro.service.checkpoint import restore_controller

    path = _require_checkpoint_path(args, "restore")
    controller, pending = restore_controller(path)
    print(
        f"restored {path}: {len(controller.history)} events replayed "
        f"and verified, {len(pending)} pending"
    )
    if args.resume and pending:
        for event in pending:
            controller.handle(event)
        print(f"resumed: processed {len(pending)} pending events")
    if args.log:
        print()
        print(controller.log.to_table())
    print()
    print(controller.metrics().to_table())
    return 0


def _fleet_serve(args) -> int:
    from repro.core.clock import StepClock
    from repro.service.checkpoint import restore_controller
    from repro.service.controller import FleetController
    from repro.service.queue import FleetService
    from repro.service.scenarios import build_scenario
    from repro.service.server import FleetApp, make_server

    if args.checkpoint:
        controller, pending = restore_controller(args.checkpoint)
        origin = f"checkpoint {args.checkpoint}"
    else:
        scenario = build_scenario(
            args.scenario, seed=args.seed, algorithm=args.algorithm
        )
        controller = FleetController(
            scenario.network, config=scenario.config, clock=StepClock()
        )
        pending = scenario.events
        origin = f"scenario {scenario.name!r} (seed {args.seed})"
    service = FleetService(controller)
    for event in pending:
        service.submit(event)
    server = make_server(FleetApp(service), host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"fleet service from {origin} on http://{host}:{port} "
        f"({service.queue.pending} queued jobs); Ctrl-C stops"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0


def _cmd_algorithms(_args) -> int:
    table = TextTable(
        ["name", "class", "description"], title="registered algorithms"
    )
    for name, cls in sorted(algorithm_registry().items()):
        doc = (cls.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else "-"
        table.add_row([name, f"{cls.__module__}.{cls.__name__}", summary])
    print(table)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "deploy": _cmd_deploy,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "quality": _cmd_quality,
    "analyze": _cmd_analyze,
    "failover": _cmd_failover,
    "figures": _cmd_figures,
    "claims": _cmd_claims,
    "fleet": _cmd_fleet,
    "algorithms": _cmd_algorithms,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
