"""Algorithm base class, problem context and registry.

Every deployment algorithm implements the same contract: given a workflow
``W(O, E)`` and a server network ``N(S, L)``, produce a complete
:class:`~repro.core.mapping.Deployment`. The :class:`DeploymentAlgorithm`
base class normalises the entry point (:meth:`DeploymentAlgorithm.deploy`),
validates the inputs once, builds the shared :class:`ProblemContext` and
leaves only :meth:`DeploymentAlgorithm._deploy` for subclasses.

A module-level registry maps algorithm names (the labels used in the
paper's figures) to classes so that the experiment harness and benchmarks
can select algorithms by name.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from repro.algorithms.runtime import (
    SearchBudget,
    SearchOutcome,
    SearchReport,
    SearchRuntime,
    SearchStep,
)
from repro.core.clock import Clock
from repro.core.compiled import CompiledInstance
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.migration import TransitionObjective
from repro.core.rng import coerce_rng
from repro.core.workflow import Workflow
from repro.exceptions import AlgorithmError
from repro.network.topology import ServerNetwork

__all__ = [
    "ProblemContext",
    "DeploymentAlgorithm",
    "register_algorithm",
    "algorithm_registry",
    "get_algorithm",
]

_REGISTRY: dict[str, type["DeploymentAlgorithm"]] = {}


def register_algorithm(cls: type["DeploymentAlgorithm"]) -> type["DeploymentAlgorithm"]:
    """Class decorator adding *cls* to the global registry by its name."""
    name = cls.name
    if not name or name == DeploymentAlgorithm.name:
        raise AlgorithmError(f"algorithm class {cls.__name__} must set a name")
    if name in _REGISTRY:
        raise AlgorithmError(f"algorithm name {name!r} registered twice")
    _REGISTRY[name] = cls
    return cls


def algorithm_registry() -> dict[str, type["DeploymentAlgorithm"]]:
    """A copy of the name -> class registry."""
    return dict(_REGISTRY)


def get_algorithm(name: str) -> type["DeploymentAlgorithm"]:
    """Look an algorithm class up by its registered name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise AlgorithmError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        ) from None


@dataclass
class ProblemContext:
    """Everything an algorithm needs about one problem instance.

    Built once per :meth:`DeploymentAlgorithm.deploy` call, it bundles the
    inputs with the shared cost model, its compiled instance, the RNG,
    the search budget and clock.

    Attributes
    ----------
    compiled:
        The cost model's :class:`~repro.core.compiled.CompiledInstance`
        -- the integer-indexed problem IR shared by every consumer, so
        algorithm inner loops can price candidates without name-dict
        lookups.
    budget:
        The :class:`~repro.algorithms.runtime.SearchBudget` governing
        this deploy call (unlimited by default).
    clock:
        The runtime's clock (monotonic wall clock when ``None``).
    report:
        The :class:`~repro.algorithms.runtime.SearchReport` of the last
        :meth:`search` run (``None`` for non-iterative algorithms).
    """

    workflow: Workflow
    network: ServerNetwork
    cost_model: CostModel
    rng: random.Random
    compiled: CompiledInstance | None = None
    budget: SearchBudget = field(default_factory=SearchBudget)
    clock: Clock | None = None
    report: SearchReport | None = None

    def search(self, steps: Iterator[SearchStep]) -> SearchOutcome:
        """Run a step generator under this context's budget and clock.

        The one entry point search algorithms use from ``_deploy``:
        builds a :class:`~repro.algorithms.runtime.SearchRuntime` with
        the context's budget and clock, drives *steps* under it, and
        records the resulting report on the context (surfaced by
        :meth:`DeploymentAlgorithm.deploy_with_report`).
        """
        outcome = SearchRuntime(budget=self.budget, clock=self.clock).run(
            steps
        )
        self.report = outcome.report
        return outcome


class DeploymentAlgorithm(ABC):
    """Base class for all deployment algorithms.

    Subclasses set :attr:`name` (the registry key, matching the paper's
    labels) and implement :meth:`_deploy`. Instances are stateless with
    respect to problem data: configuration lives in ``__init__``
    parameters, and every :meth:`deploy` call is independent.

    Class attributes
    ----------------
    name:
        Registry key and report label.
    uses_probability_weights:
        When True (the default) and the cost model weights by execution
        probability, the cycles and message sizes a greedy heuristic
        reads through :class:`~repro.algorithms.graph_adapters.WeightedGraph`
        are probability-weighted (section 3.4).
        Fair Load sets this to False -- the paper keeps it "exactly the
        same" on random graphs.
    """

    name: str = "abstract"
    uses_probability_weights: bool = True

    def deploy(
        self,
        workflow: Workflow,
        network: ServerNetwork,
        cost_model: CostModel | None = None,
        rng: random.Random | int | None = None,
        budget: SearchBudget | None = None,
        clock: Clock | None = None,
        objective: TransitionObjective | None = None,
    ) -> Deployment:
        """Compute a complete mapping of *workflow* onto *network*.

        Parameters
        ----------
        workflow, network:
            The problem instance. The workflow must be non-empty and a
            DAG; the network must be non-empty and connected.
        cost_model:
            Optional shared :class:`~repro.core.cost.CostModel`; built
            with default weights when omitted. Algorithms use it for
            evaluation-driven choices (e.g. best-of-two-directions) and
            experiments should pass the same model they score with.
        rng:
            Seed or ``random.Random`` used for the random initial mapping
            required by the tie-resolver family and for any stochastic
            tie-breaks. ``None`` explicitly means the library-wide
            deterministic default, ``Random(0)`` -- see
            :func:`repro.core.rng.coerce_rng`.
        budget:
            Optional :class:`~repro.algorithms.runtime.SearchBudget`.
            Iterative algorithms stop at whichever limit fires first
            and return their best-so-far incumbent -- always a valid,
            complete deployment. With the default unlimited budget,
            seeded results are byte-identical to the pre-runtime
            implementations. Non-iterative algorithms (the greedy
            suite) ignore the budget.
        clock:
            Clock used for ``budget.deadline_s`` (monotonic wall clock
            by default; inject :class:`~repro.core.clock.StepClock`
            for deterministic tests).
        objective:
            Optional :class:`~repro.core.migration.TransitionObjective`.
            When given and *cost_model* is omitted, the cost model is
            built from it, so the whole search (anytime curves and
            budgets included) prices candidates transition-aware. When
            both are given they must agree -- passing a cost model
            compiled from a different objective raises
            :class:`~repro.exceptions.AlgorithmError`.
        """
        deployment, _ = self.deploy_with_report(
            workflow,
            network,
            cost_model=cost_model,
            rng=rng,
            budget=budget,
            clock=clock,
            objective=objective,
        )
        return deployment

    def deploy_with_report(
        self,
        workflow: Workflow,
        network: ServerNetwork,
        cost_model: CostModel | None = None,
        rng: random.Random | int | None = None,
        budget: SearchBudget | None = None,
        clock: Clock | None = None,
        objective: TransitionObjective | None = None,
    ) -> tuple[Deployment, SearchReport | None]:
        """:meth:`deploy`, plus the search report.

        Returns ``(deployment, report)`` where *report* is the
        :class:`~repro.algorithms.runtime.SearchReport` of the
        algorithm's top-level search -- evaluation counts, the anytime
        best-so-far curve and the stop reason -- or ``None`` for
        non-iterative algorithms.
        """
        if len(workflow) == 0:
            raise AlgorithmError("workflow has no operations")
        if len(network) == 0:
            raise AlgorithmError("network has no servers")
        network.require_connected()
        if objective is not None:
            if cost_model is None:
                cost_model = CostModel(workflow, network, objective=objective)
            elif cost_model.compiled.objective != objective:
                raise AlgorithmError(
                    "deploy(objective=...) conflicts with the provided "
                    "cost_model; build the cost model from the same "
                    "TransitionObjective (or pass only one of the two)"
                )
        if cost_model is None:
            cost_model = CostModel(workflow, network)
        rng = coerce_rng(rng)

        context = ProblemContext(
            workflow=workflow,
            network=network,
            cost_model=cost_model,
            rng=rng,
            compiled=cost_model.compiled,
            budget=budget if budget is not None else SearchBudget(),
            clock=clock,
        )
        deployment = self._deploy(context)
        deployment.validate(workflow, network)
        return deployment, context.report

    @abstractmethod
    def _deploy(self, context: ProblemContext) -> Deployment:
        """Algorithm body; must return a complete deployment."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
