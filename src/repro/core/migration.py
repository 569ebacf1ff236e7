"""Transition-aware objectives: migration costs relative to a baseline.

The paper optimises a *one-shot* deployment: every candidate mapping is
priced in isolation, as if the fleet sprang into existence already
arranged. A live provider re-deploys a running system, and every move
has a price -- the operation's accumulated state must be transferred to
the new server and the operation is unavailable while it drains and
restarts. An objective that ignores this oscillates freely under load
drift (the operator-placement-under-change setting of Benoit et al. and
the continuous "perfect place" re-evaluation of Luckeneder & Barker).

Two value objects make the objective transition-aware:

:class:`MigrationCostModel`
    The per-operation price of *moving*: a linear state-size model
    (``state_bits_base + state_bits_per_cycle * C(op)`` -- heavier
    operations carry more state) plus a fixed ``downtime_s`` per move.
    The transfer itself is priced through the same per-server-pair
    route-delay table every other cost term uses, so a move between
    co-located replicas is cheap and a move across a slow link is not.

:class:`TransitionObjective`
    The full objective specification: the classic
    ``execution_weight * Texecute + penalty_weight * TimePenalty``
    pair plus ``migration_weight * MigrationCost`` relative to a
    *baseline* :class:`~repro.core.mapping.FrozenDeployment` (the
    currently running placement). Every consumer -- the compiled IR,
    :class:`~repro.core.cost.CostModel`,
    :class:`~repro.core.incremental.MoveEvaluator`,
    :class:`~repro.core.batch.BatchEvaluator`, the algorithms and the
    fleet controller -- evaluates through :meth:`TransitionObjective.value`
    or the compiled artifact's tables derived from it.

**Behaviour-preservation contract.** With ``migration_weight == 0`` (the
default) the objective is *exactly* the historical scalar: the migration
term is gated out before any floating-point operation happens, so every
seeded deployment, fleet log and RNG stream is byte-identical to the
pre-refactor code path. The frozen-oracle property suites in
``tests/properties/`` pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.mapping import Deployment, FrozenDeployment
from repro.exceptions import DeploymentError

__all__ = ["MigrationCostModel", "TransitionObjective", "PENALTY_MODES"]

#: Supported fairness statistics for the ``TimePenalty`` term (the
#: canonical tuple; :mod:`repro.core.compiled` re-exports it):
#: ``"mad"`` -- mean absolute deviation from the average load;
#: ``"sum_abs"`` -- total absolute deviation;
#: ``"max"`` -- worst single-server deviation;
#: ``"std"`` -- population standard deviation of the loads.
PENALTY_MODES = ("mad", "sum_abs", "max", "std")


@dataclass(frozen=True)
class MigrationCostModel:
    """The price of relocating one operation to another server.

    A move transfers the operation's state and restarts it: the state
    size is a linear function of the operation's cycles (state tracks
    work), the transfer is priced over the route between the baseline
    server and the destination, and ``downtime_s`` is charged once per
    move regardless of distance. An operation that stays on its
    baseline server costs nothing.

    Parameters
    ----------
    state_bits_per_cycle:
        Bits of transferable state per cycle of ``C(op)`` (>= 0).
    state_bits_base:
        Fixed per-operation state floor in bits (>= 0) -- container
        image, runtime heap, connection tables.
    downtime_s:
        Seconds of unavailability charged per move (>= 0), independent
        of where the operation lands.
    """

    state_bits_per_cycle: float = 0.0
    state_bits_base: float = 0.0
    downtime_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("state_bits_per_cycle", "state_bits_base", "downtime_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise DeploymentError(
                    f"MigrationCostModel.{name} must be finite and >= 0, "
                    f"got {value!r}"
                )

    def state_bits(self, cycles: float) -> float:
        """Transferable state of an operation with ``C(op) = cycles``."""
        return self.state_bits_base + self.state_bits_per_cycle * cycles

    def move_cost(self, delay_s: float) -> float:
        """The cost of one move whose state transfer takes *delay_s*.

        The single pricing expression shared by the full migration-table
        compile and the per-pair row refresh after link events -- one
        float operation order, so refreshes are bit-identical to
        recompiles.
        """
        return self.downtime_s + delay_s


@dataclass(frozen=True)
class TransitionObjective:
    """The complete objective specification, optionally transition-aware.

    The classic pair (``execution_weight``, ``penalty_weight``,
    ``penalty_mode``) plus the transition term: ``migration_weight``
    times the summed :class:`MigrationCostModel` cost of every operation
    that left its *baseline* server. The specification is inert data; the
    :class:`~repro.core.compiled.CompiledInstance` built from it owns
    the derived per-``(op, server)`` migration-cost table.

    The objective is *transition-aware* -- the migration term
    participates in evaluation -- only when all three of
    :attr:`migration`, a positive :attr:`migration_weight` and a
    :attr:`baseline` are present (:attr:`transition_aware`). Otherwise
    every evaluation reduces exactly to the historical two-term scalar.

    Parameters
    ----------
    execution_weight, penalty_weight:
        Coefficients of the classic scalar objective (both >= 0).
    penalty_mode:
        Fairness statistic; one of :data:`PENALTY_MODES`.
    migration_weight:
        Coefficient of the migration term (>= 0; 0 disables it).
    migration:
        The per-operation move-cost model; required when
        ``migration_weight > 0``.
    baseline:
        The currently running placement that moves are priced against.
        A mutable :class:`~repro.core.mapping.Deployment` is snapshotted
        into a :class:`~repro.core.mapping.FrozenDeployment` on
        construction.
    use_probabilities:
        Weight costs by execution probabilities (section 3.4). ``None``
        auto-enables exactly when the workflow contains an ``XOR``
        split, as everywhere else.
    """

    execution_weight: float = 0.5
    penalty_weight: float = 0.5
    penalty_mode: str = "mad"
    migration_weight: float = 0.0
    migration: MigrationCostModel | None = None
    baseline: FrozenDeployment | None = None
    use_probabilities: bool | None = None

    def __post_init__(self) -> None:
        if self.penalty_mode not in PENALTY_MODES:
            raise DeploymentError(
                f"unknown penalty mode {self.penalty_mode!r}; expected one "
                f"of {PENALTY_MODES}"
            )
        if self.execution_weight < 0 or self.penalty_weight < 0:
            raise DeploymentError("objective weights must be >= 0")
        if not math.isfinite(self.migration_weight) or self.migration_weight < 0:
            raise DeploymentError(
                f"migration_weight must be finite and >= 0, got "
                f"{self.migration_weight!r}"
            )
        if self.migration_weight > 0 and self.migration is None:
            raise DeploymentError(
                "migration_weight > 0 requires a MigrationCostModel"
            )
        if isinstance(self.baseline, Deployment):
            object.__setattr__(self, "baseline", self.baseline.frozen())

    @property
    def transition_aware(self) -> bool:
        """True when the migration term participates in evaluation."""
        return (
            self.migration is not None
            and self.migration_weight > 0
            and self.baseline is not None
        )

    def value(
        self, execution: float, penalty: float, migration: float = 0.0
    ) -> float:
        """The scalar objective from its components.

        The shared formula behind every consumer. With
        ``migration_weight == 0`` the migration term is gated out
        entirely -- the returned float is produced by exactly the
        historical two-term expression.
        """
        base = (
            self.execution_weight * execution
            + self.penalty_weight * penalty
        )
        if self.migration_weight > 0.0:
            return base + self.migration_weight * migration
        return base
