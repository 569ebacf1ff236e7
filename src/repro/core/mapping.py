"""The deployment mapping ``O -> S`` (section 2.2).

A :class:`Deployment` records, for each operation of a workflow, the
server it is deployed on -- the paper's ``Mapping`` set of assignments
``o -> s``. It is deliberately a thin, mutable container: the greedy
algorithms build mappings incrementally (assigning, re-assigning and
querying as they go) and the cost model validates completeness only when
a cost is actually computed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from repro.core.workflow import Workflow
from repro.exceptions import (
    DeploymentError,
    IncompleteMappingError,
    UnknownOperationError,
    UnknownServerError,
)
from repro.network.topology import ServerNetwork

__all__ = ["Deployment", "FrozenDeployment"]

#: Process-wide source of :attr:`Deployment.stamp` values: no two
#: mutations anywhere in the process draw the same stamp.
_stamps = itertools.count()


class FrozenDeployment:
    """An immutable, hashable snapshot of a :class:`Deployment`.

    :class:`Deployment` is deliberately mutable (the greedy algorithms
    assign and re-assign as they go), which makes it unusable as a dict
    or set key: its hash would change under ``assign()`` while the
    container still files it under the old one. Snapshots taken with
    :meth:`Deployment.frozen` are the supported key type -- assignment
    order does not matter, so two snapshots are equal (and hash alike)
    exactly when they map the same operations to the same servers.
    """

    __slots__ = ("_items",)

    def __init__(self, assignments: Mapping[str, str]):
        self._items: tuple[tuple[str, str], ...] = tuple(
            sorted(assignments.items())
        )

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenDeployment):
            return self._items == other._items
        if isinstance(other, Deployment):
            return dict(self._items) == other.as_dict()
        return NotImplemented

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def as_dict(self) -> dict[str, str]:
        """A plain-dict copy of the snapshot."""
        return dict(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenDeployment({dict(self._items)!r})"


class Deployment:
    """A (possibly partial) assignment of operations to servers.

    The container does not hold references to the workflow or network; it
    stores names only, so one deployment can be evaluated against scaled
    copies of the same workflow (Class B experiments). Validation against
    concrete workflow/network objects happens in :meth:`validate` and in
    the cost model.
    """

    def __init__(self, assignments: Mapping[str, str] | None = None):
        self._assignments: dict[str, str] = dict(assignments or {})
        #: Redrawn on construction and on every mutation: a cache that
        #: holds this object and a stamp knows in O(1) whether the
        #: assignments changed since (the fleet's price cache does).
        self.stamp = next(_stamps)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def all_on_one(cls, workflow: Workflow, server_name: str) -> "Deployment":
        """Deploy every operation on *server_name*.

        The degenerate mapping the paper uses to illustrate the tension
        between the two metrics: zero communication cost, worst fairness.
        """
        return cls({name: server_name for name in workflow.operation_names})

    @classmethod
    def round_robin(
        cls, workflow: Workflow, network: ServerNetwork
    ) -> "Deployment":
        """Deal operations to servers in turn -- a simple baseline."""
        servers = network.server_names
        if not servers:
            raise DeploymentError("network has no servers")
        return cls(
            {
                name: servers[i % len(servers)]
                for i, name in enumerate(workflow.operation_names)
            }
        )

    @classmethod
    def random(
        cls,
        workflow: Workflow,
        network: ServerNetwork,
        rng,
    ) -> "Deployment":
        """Uniformly random mapping, using *rng* (``random.Random``-like).

        This is both the paper's baseline and the required initial state
        of the tie-resolver algorithms ("initialize M to a random
        mapping").
        """
        servers = network.server_names
        if not servers:
            raise DeploymentError("network has no servers")
        return cls(
            {name: rng.choice(servers) for name in workflow.operation_names}
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, operation_name: str, server_name: str) -> None:
        """Set (or move) *operation_name* onto *server_name*."""
        self._assignments[operation_name] = server_name
        self.stamp = next(_stamps)

    def unassign(self, operation_name: str) -> None:
        """Remove the assignment for *operation_name* if present."""
        self._assignments.pop(operation_name, None)
        self.stamp = next(_stamps)

    def update(self, assignments: Mapping[str, str]) -> None:
        """Bulk :meth:`assign`."""
        self._assignments.update(assignments)
        self.stamp = next(_stamps)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, operation_name: str) -> bool:
        return operation_name in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._assignments.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenDeployment):
            return other == self
        if not isinstance(other, Deployment):
            return NotImplemented
        return self._assignments == other._assignments

    # Deployments are mutable; hashing one is a latent bug (a dict/set
    # key silently breaks after assign()), so there deliberately is no
    # __hash__ -- take a frozen() snapshot to use as a key.
    __hash__ = None  # type: ignore[assignment]

    def frozen(self) -> FrozenDeployment:
        """An immutable, hashable snapshot of the current assignments."""
        return FrozenDeployment(self._assignments)

    def server_of(self, operation_name: str) -> str:
        """``Server(op)``: where *operation_name* is deployed (or raise)."""
        try:
            return self._assignments[operation_name]
        except KeyError:
            raise IncompleteMappingError(
                f"operation {operation_name!r} is not deployed"
            ) from None

    def get(self, operation_name: str) -> str | None:
        """Like :meth:`server_of` but returning ``None`` when unassigned."""
        return self._assignments.get(operation_name)

    def operations_on(self, server_name: str) -> tuple[str, ...]:
        """Operations deployed on *server_name*, in assignment order."""
        return tuple(
            op for op, srv in self._assignments.items() if srv == server_name
        )

    def used_servers(self) -> tuple[str, ...]:
        """Distinct servers that host at least one operation."""
        return tuple(dict.fromkeys(self._assignments.values()))

    def is_complete(self, workflow: Workflow) -> bool:
        """True when every operation of *workflow* is assigned."""
        return all(name in self._assignments for name in workflow.operation_names)

    def missing(self, workflow: Workflow) -> tuple[str, ...]:
        """Operations of *workflow* that are not assigned yet."""
        return tuple(
            name
            for name in workflow.operation_names
            if name not in self._assignments
        )

    def validate(self, workflow: Workflow, network: ServerNetwork) -> None:
        """Raise unless the mapping is complete and names resolve.

        Checks: every workflow operation is assigned, every assignment key
        is a workflow operation, and every target is a network server.
        """
        for name in self._assignments:
            if name not in workflow:
                raise UnknownOperationError(
                    f"deployment assigns unknown operation {name!r}"
                )
        for server in self._assignments.values():
            if server not in network:
                raise UnknownServerError(
                    f"deployment targets unknown server {server!r}"
                )
        unassigned = self.missing(workflow)
        if unassigned:
            raise IncompleteMappingError(
                f"operations not deployed: {', '.join(map(repr, unassigned))}"
            )

    # ------------------------------------------------------------------
    # conversion / comparison
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, str]:
        """A plain-dict copy of the assignments."""
        return dict(self._assignments)

    def copy(self) -> "Deployment":
        """An independent copy."""
        return Deployment(self._assignments)

    def diff(self, other: "Deployment") -> dict[str, tuple[str | None, str | None]]:
        """Operations mapped differently in *other*.

        Returns ``{operation: (self_server, other_server)}`` where either
        side may be ``None`` for an unassigned operation.
        """
        names: Iterable[str] = dict.fromkeys(
            list(self._assignments) + list(other._assignments)
        )
        return {
            name: (self.get(name), other.get(name))
            for name in names
            if self.get(name) != other.get(name)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deployment({self._assignments!r})"
