"""The paper's qualitative claims, encoded as checkable predicates.

Every sentence of the section 4 narrative that this reproduction targets
is a :class:`Claim`: an id, the paper's wording, and a predicate over
freshly run experiments. :func:`verify_claims` runs the whole battery
and reports pass/fail per claim -- "reproduction status" as an
executable artefact rather than prose (also exposed as
``python -m repro claims``).

The integration test suite asserts the same facts with finer-grained
diagnostics; this module is the one-shot, user-facing version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.quality import QualityProtocol
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.tables import TextTable

__all__ = ["Claim", "ClaimReport", "PAPER_CLAIMS", "verify_claims"]

HOLM = "HeavyOps-LargeMsgs"
SLOW, FAST = 1e6, 100e6


@dataclass(frozen=True)
class Claim:
    """One checkable sentence of the paper's evaluation narrative."""

    id: str
    text: str
    check: Callable[["_Evidence"], bool]


class _Evidence:
    """Lazily computed experiment results shared by all claim checks."""

    def __init__(self, repetitions: int, seed: int, quality_samples: int):
        self.repetitions = repetitions
        self.seed = seed
        self.quality_samples = quality_samples
        self._results: dict[tuple[str, float], ExperimentResult] = {}
        self._runner = ExperimentRunner(DEFAULT_ALGORITHMS + ("Random",))

    def result(self, kind: str, speed: float) -> ExperimentResult:
        """The suite's result on one (workflow kind, bus speed) panel."""
        key = (kind, speed)
        if key not in self._results:
            self._results[key] = self._runner.run(
                ExperimentConfig(
                    workflow_kind=kind,
                    num_operations=19,
                    num_servers=5,
                    bus_speed_bps=speed,
                    repetitions=self.repetitions,
                    seed=self.seed,
                )
            )
        return self._results[key]

    def quality_report(self, kind: str, speed: float, algorithm: str):
        """The §4.1 deviation report for one algorithm on one panel."""
        protocol = QualityProtocol(
            algorithms=(algorithm,),
            experiments=max(3, self.repetitions // 2),
            samples=self.quality_samples,
        )
        return protocol.run(
            ExperimentConfig(
                workflow_kind=kind,
                num_operations=19,
                num_servers=5,
                bus_speed_bps=speed,
                repetitions=1,
                seed=self.seed + 13,
            )
        )


def _holm_fastest_on(kind: str):
    def check(evidence: _Evidence) -> bool:
        result = evidence.result(kind, SLOW)
        holm = result.mean_execution_time(HOLM)
        return all(
            holm < result.mean_execution_time(name)
            for name in result.algorithms()
            if name != HOLM
        )

    return check


def _tie_resolvers_improve(evidence: _Evidence) -> bool:
    result = evidence.result("line", SLOW)
    fair = result.mean_execution_time("FairLoad")
    return (
        result.mean_execution_time("FL-TieResolver") < fair
        and result.mean_execution_time("FL-TieResolver2") < fair
    )


def _flmme_trades_fairness(evidence: _Evidence) -> bool:
    result = evidence.result("line", SLOW)
    return (
        result.mean_execution_time("FL-MergeMsgEnds")
        < result.mean_execution_time("FL-TieResolver2")
        and result.mean_time_penalty("FL-MergeMsgEnds")
        > result.mean_time_penalty("FL-TieResolver2")
    )


def _fast_bus_converges(evidence: _Evidence) -> bool:
    result = evidence.result("line", FAST)
    times = [result.mean_execution_time(name) for name in DEFAULT_ALGORITHMS]
    return max(times) / min(times) < 1.10


def _holm_fair_on_fast_bus(evidence: _Evidence) -> bool:
    result = evidence.result("line", FAST)
    best = min(result.mean_time_penalty(name) for name in DEFAULT_ALGORITHMS)
    return result.mean_time_penalty(HOLM) <= best * 1.25 + 1e-12


def _holm_stable_across_structures(evidence: _Evidence) -> bool:
    return all(
        evidence.result(kind, SLOW).winner_by_execution() == HOLM
        for kind in ("bushy", "lengthy", "hybrid")
    )


def _holm_quality_slow_bus(evidence: _Evidence) -> bool:
    report = evidence.quality_report("line", SLOW, HOLM)
    worst_exec, _ = report.worst_case(HOLM)
    return worst_exec <= 0.10


def _holm_quality_fast_bus(evidence: _Evidence) -> bool:
    # judged through the load-normalised gap: the raw relative penalty
    # deviation is ill-conditioned when the sampled best is near 0
    report = evidence.quality_report("line", FAST, HOLM)
    return report.worst_penalty_gap(HOLM) <= 0.05


#: The section 4 narrative, claim by claim.
PAPER_CLAIMS: tuple[Claim, ...] = (
    Claim(
        "holm-wins-line",
        "HeavyOps-LargeMsgs produces quite acceptable execution times, "
        "esp. for small bus capacities (Line-Bus, 1 Mbps)",
        _holm_fastest_on("line"),
    ),
    Claim(
        "tie-resolvers-improve",
        "Both Tie Resolver algorithms provide some improvements over "
        "Fair Load",
        _tie_resolvers_improve,
    ),
    Claim(
        "flmme-trades-fairness",
        "FL-Merge Messages' Ends improves the execution time by "
        "deteriorating the load balance",
        _flmme_trades_fairness,
    ),
    Claim(
        "fast-bus-converges",
        "With cheap communication (100 Mbps) the algorithms' execution "
        "times converge",
        _fast_bus_converges,
    ),
    Claim(
        "holm-fair-when-cheap",
        "On fast buses HeavyOps-LargeMsgs matches the best fairness "
        "(grouping never triggers)",
        _holm_fair_on_fast_bus,
    ),
    Claim(
        "holm-clear-winner-graphs",
        "For almost all graph configurations HeavyOps-LargeMsgs is a "
        "clear winner in execution time (bushy/lengthy/hybrid)",
        _holm_stable_across_structures,
    ),
    Claim(
        "holm-near-optimal-exec",
        "HeavyOps-LargeMsgs' execution time is near the best sampled "
        "solution on the 1 Mbps bus (paper: 2.9% worst case)",
        _holm_quality_slow_bus,
    ),
    Claim(
        "holm-near-optimal-fairness",
        "HeavyOps-LargeMsgs' fairness is near the best sampled solution "
        "on the 100 Mbps bus (paper: 0.3% worst case)",
        _holm_quality_fast_bus,
    ),
)


@dataclass
class ClaimReport:
    """Outcome of one :func:`verify_claims` run."""

    outcomes: list[tuple[Claim, bool]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """True when every claim reproduced."""
        return all(passed for _, passed in self.outcomes)

    @property
    def passed(self) -> int:
        """Number of claims that reproduced."""
        return sum(1 for _, ok in self.outcomes if ok)

    def table(self) -> TextTable:
        """One row per claim: id, verdict, the paper's wording."""
        table = TextTable(
            ["claim", "verdict", "paper says"],
            title=(
                f"reproduction verdicts: {self.passed}/"
                f"{len(self.outcomes)} claims hold"
            ),
        )
        for claim, ok in self.outcomes:
            table.add_row(
                [claim.id, "PASS" if ok else "FAIL", claim.text]
            )
        return table


def verify_claims(
    repetitions: int = 8,
    seed: int = 42,
    quality_samples: int = 2_000,
    claims: tuple[Claim, ...] = PAPER_CLAIMS,
) -> ClaimReport:
    """Re-run the evaluation and judge every claim.

    Deterministic in *seed*; ~10 s at the defaults. A claim failing here
    means either the reproduction regressed or the chosen seed is an
    outlier -- the integration tests pin the same facts on fixed seeds,
    so investigate, don't re-roll.
    """
    evidence = _Evidence(repetitions, seed, quality_samples)
    report = ClaimReport()
    for claim in claims:
        report.outcomes.append((claim, bool(claim.check(evidence))))
    return report
