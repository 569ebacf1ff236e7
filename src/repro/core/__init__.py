"""Core model: workflows, deployments, cost functions, constraints.

This package implements the formal model of section 2.2 of the paper:

* :mod:`repro.core.workflow` -- operations, messages and the workflow digraph
  ``W(O, E)``, including decision nodes (``AND``/``OR``/``XOR`` and their
  complements).
* :mod:`repro.core.builder` -- a fluent builder that produces well-formed
  workflows by construction.
* :mod:`repro.core.validation` -- the well-formedness checker for arbitrary
  digraphs.
* :mod:`repro.core.probability` -- execution-probability propagation used by
  the random-graph algorithms (section 3.4).
* :mod:`repro.core.mapping` -- the deployment mapping ``O -> S``.
* :mod:`repro.core.migration` -- transition-aware objectives:
  :class:`MigrationCostModel` (per-op move cost from state-size/downtime
  parameters) and :class:`TransitionObjective` (the full objective
  specification, with migration priced relative to a baseline
  :class:`FrozenDeployment`).
* :mod:`repro.core.compiled` -- the compiled problem IR
  (:class:`CompiledInstance`): one integer-indexed artifact per
  ``(workflow, network, cost parameters)`` triple, shared by the cost
  model, the move evaluators, the simulation engine and the fleet.
* :mod:`repro.core.cost` -- the cost model of Table 1 (``Tproc``, ``Tcomm``,
  ``Load``, ``TimePenalty``, ``Texecute``) and the weighted objective.
* :mod:`repro.core.incremental` -- the incremental move evaluator
  (:class:`MoveEvaluator`) that prices search moves in time proportional
  to the affected region.
* :mod:`repro.core.batch` -- the vectorized batch evaluation kernel
  (``BatchEvaluator``) that scores a whole ``(K, M)`` array of candidate
  deployments per NumPy call. Import it from :mod:`repro.core.batch` (or
  reach it through :meth:`CompiledInstance.batch_evaluator`); it is not
  re-exported here, so importing ``repro.core`` does not load NumPy.
* :mod:`repro.core.rng` -- the shared seed-coercion helper
  (:func:`coerce_rng`) behind every stochastic entry point.
* :mod:`repro.core.constraints` -- the optional user-constraint set ``C``.
"""

from repro.core.workflow import (
    NodeKind,
    Operation,
    Message,
    Workflow,
)
from repro.core.builder import WorkflowBuilder
from repro.core.validation import (
    WellFormednessReport,
    check_well_formed,
    assert_well_formed,
)
from repro.core.probability import execution_probabilities
from repro.core.mapping import Deployment, FrozenDeployment
from repro.core.migration import MigrationCostModel, TransitionObjective
from repro.core.compiled import CompiledInstance, penalty_statistic
from repro.core.cost import CostModel, CostBreakdown
from repro.core.rng import coerce_rng
from repro.core.incremental import MoveEvaluator, MoveOutcome
from repro.core.constraints import (
    Constraint,
    MaxExecutionTime,
    MaxServerLoad,
    MaxTimePenalty,
    ConstraintSet,
)

__all__ = [
    "NodeKind",
    "Operation",
    "Message",
    "Workflow",
    "WorkflowBuilder",
    "WellFormednessReport",
    "check_well_formed",
    "assert_well_formed",
    "execution_probabilities",
    "Deployment",
    "FrozenDeployment",
    "MigrationCostModel",
    "TransitionObjective",
    "CompiledInstance",
    "penalty_statistic",
    "CostModel",
    "CostBreakdown",
    "coerce_rng",
    "MoveEvaluator",
    "MoveOutcome",
    "Constraint",
    "MaxExecutionTime",
    "MaxServerLoad",
    "MaxTimePenalty",
    "ConstraintSet",
]
