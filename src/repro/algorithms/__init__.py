"""Deployment algorithms (section 3 and the appendix of the paper).

Baselines
    :class:`~repro.algorithms.exhaustive.Exhaustive` (section 3.1),
    :class:`~repro.algorithms.sampling.RandomMapping` and
    :class:`~repro.algorithms.sampling.SolutionSampler` (the 32 000-sample
    quality protocol of section 4.1).

Line--Line (section 3.2)
    :class:`~repro.algorithms.line_line.LineLine` with its four variants
    (with/without critical-bridge fixing, left-to-right / best of both
    directions).

Line--Bus and Random Graph--Bus (sections 3.3-3.4)
    :class:`~repro.algorithms.fair_load.FairLoad`,
    :class:`~repro.algorithms.tie_resolver.FairLoadTieResolver` (FLTR),
    :class:`~repro.algorithms.tie_resolver.FairLoadTieResolver2` (FLTR2),
    :class:`~repro.algorithms.merge_messages.FairLoadMergeMessages`
    (FL-MergeMsgEnds) and
    :class:`~repro.algorithms.heavy_ops.HeavyOpsLargeMsgs` (HOLM). The
    same classes handle both workflow shapes: on graphs with XOR decision
    nodes all of them except Fair Load weight cycles and message sizes by
    execution probability, exactly as section 3.4 prescribes.

Extensions (section 6 future work)
    :class:`~repro.algorithms.local_search.HillClimbing` and
    :class:`~repro.algorithms.local_search.SimulatedAnnealing` refine any
    starting mapping by single-operation moves;
    :class:`~repro.algorithms.branch_and_bound.BranchAndBound` finds the
    exact optimum with pruning (a stronger §3.1);
    :class:`~repro.algorithms.genetic.GeneticAlgorithm` is a population-
    based improver seeded with the greedy suite.

The search runtime (:mod:`repro.algorithms.runtime`)
    Every iterative algorithm above is expressed as a *step generator*
    driven by :class:`~repro.algorithms.runtime.SearchRuntime` under a
    :class:`~repro.algorithms.runtime.SearchBudget` (step/evaluation
    caps, wall-clock deadlines), with a structured
    :class:`~repro.algorithms.runtime.SearchReport` per run. Pass
    ``budget=`` to any ``deploy`` call, or use ``deploy_with_report``
    to also get the anytime best-so-far curve.

The parallel layer (:mod:`repro.parallel`)
    :func:`~repro.parallel.deploy_parallel` runs one algorithm as
    seeded restarts across worker processes and
    :func:`~repro.parallel.race_portfolio` races a portfolio of
    algorithms, each under its share of one budget; both are
    re-exported here for convenience.
"""

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    algorithm_registry,
    get_algorithm,
    register_algorithm,
)
from repro.algorithms.runtime import (
    SearchBudget,
    SearchOutcome,
    SearchReport,
    SearchRuntime,
    SearchStep,
)
from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.sampling import RandomMapping, SolutionSampler, SampleStatistics
from repro.algorithms.line_line import LineLine
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.tie_resolver import FairLoadTieResolver, FairLoadTieResolver2
from repro.algorithms.merge_messages import FairLoadMergeMessages
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.branch_and_bound import BranchAndBound
from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.constrained import ConstraintAwareSearch

__all__ = [
    "DeploymentAlgorithm",
    "ProblemContext",
    "algorithm_registry",
    "get_algorithm",
    "register_algorithm",
    "SearchBudget",
    "SearchOutcome",
    "SearchReport",
    "SearchRuntime",
    "SearchStep",
    "Exhaustive",
    "RandomMapping",
    "SolutionSampler",
    "SampleStatistics",
    "LineLine",
    "FairLoad",
    "FairLoadTieResolver",
    "FairLoadTieResolver2",
    "FairLoadMergeMessages",
    "HeavyOpsLargeMsgs",
    "HillClimbing",
    "SimulatedAnnealing",
    "BranchAndBound",
    "GeneticAlgorithm",
    "ConstraintAwareSearch",
    "deploy_parallel",
    "race_portfolio",
]

# imported last: repro.parallel builds on the registry populated above
from repro.parallel.api import deploy_parallel, race_portfolio  # noqa: E402
