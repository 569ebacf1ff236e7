"""Picklable algorithm specs and the default portfolio.

Worker processes cannot receive live algorithm objects bound to problem
data, and the CLI needs a textual way to name "FLTR2-seeded hill
climbing". :class:`AlgorithmSpec` is the common currency: a frozen,
picklable description -- registry name, constructor parameters, and an
optional constructive *seed algorithm* for the refinement family --
that each worker :meth:`~AlgorithmSpec.build`\\ s locally.

:data:`DEFAULT_PORTFOLIO` is the racing line-up used when the caller
does not provide one: the paper's strongest constructive baselines
(HOLM, FLTR2) fanned into hill-climbing / annealing polishers, plus a
genetic improver and a cold random-start climber for diversity.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cache
from typing import Any

from repro.algorithms.base import DeploymentAlgorithm, get_algorithm
from repro.exceptions import AlgorithmError

__all__ = ["AlgorithmSpec", "DEFAULT_PORTFOLIO"]


@cache
def _accepted(algorithm_cls: type) -> frozenset[str]:
    """The constructor parameter names of *algorithm_cls*, read once."""
    return frozenset(inspect.signature(algorithm_cls.__init__).parameters)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A picklable recipe for one configured deployment algorithm.

    Attributes
    ----------
    name:
        Registry name of the algorithm class.
    seed_algorithm:
        Optional registry name of the constructive algorithm passed as
        the ``seed_algorithm`` constructor argument (the refinement
        family's starting-point hook).
    params:
        Remaining constructor keyword arguments as a sorted tuple of
        ``(key, value)`` pairs -- tuple, not dict, so specs are
        hashable and their labels deterministic.
    """

    name: str
    seed_algorithm: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls, name: str, seed_algorithm: str | None = None, **params
    ) -> "AlgorithmSpec":
        """Validated constructor (names resolved, kwargs accepted).

        The constructor's signature is read only when there is a
        ``seed_algorithm`` or a parameter to check against it, and then
        once per algorithm class.
        """
        algorithm_cls = get_algorithm(name)
        if seed_algorithm is None and not params:
            return cls(name=name)
        accepted = _accepted(algorithm_cls)
        if seed_algorithm is not None:
            get_algorithm(seed_algorithm)
            if "seed_algorithm" not in accepted:
                raise AlgorithmError(
                    f"algorithm {name!r} takes no seed_algorithm; "
                    f"cannot build {name}@{seed_algorithm}"
                )
        for key in params:
            if key not in accepted:
                raise AlgorithmError(
                    f"algorithm {name!r} has no parameter {key!r}"
                )
        return cls(
            name=name,
            seed_algorithm=seed_algorithm,
            params=tuple(sorted(params.items())),
        )

    @classmethod
    def parse(cls, text: str) -> "AlgorithmSpec":
        """Parse the CLI syntax ``Name`` or ``Name@SeedName``.

        ``"HillClimbing@HeavyOps-LargeMsgs"`` is FLTR-style notation
        for "HillClimbing seeded with HeavyOps-LargeMsgs".
        """
        name, _, seed_name = text.partition("@")
        return cls.of(name.strip(), seed_name.strip() or None)

    @classmethod
    def coerce(
        cls, entry: "AlgorithmSpec | DeploymentAlgorithm | str"
    ) -> "AlgorithmSpec | DeploymentAlgorithm":
        """Accept specs, registry names, or ready (picklable) instances."""
        if isinstance(entry, (AlgorithmSpec, DeploymentAlgorithm)):
            return entry
        return cls.parse(entry)

    @property
    def label(self) -> str:
        """Human/CLI label, invertible through :meth:`parse` when bare."""
        label = self.name
        if self.seed_algorithm is not None:
            label = f"{label}@{self.seed_algorithm}"
        if self.params:
            details = ",".join(f"{k}={v}" for k, v in self.params)
            label = f"{label}({details})"
        return label

    def build(self) -> DeploymentAlgorithm:
        """Instantiate the algorithm (in the worker process, usually)."""
        kwargs = dict(self.params)
        if self.seed_algorithm is not None:
            kwargs["seed_algorithm"] = get_algorithm(self.seed_algorithm)()
        return get_algorithm(self.name)(**kwargs)


def spec_label(entry: "AlgorithmSpec | DeploymentAlgorithm") -> str:
    """Label for either currency accepted by the fan-out layer."""
    if isinstance(entry, AlgorithmSpec):
        return entry.label
    return entry.name


#: The default racing line-up for :func:`repro.parallel.api.
#: race_portfolio`: constructive seeds fanned into polishers, ordered
#: strongest-first so truncation to few workers keeps the best entries.
DEFAULT_PORTFOLIO: tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec("HillClimbing", "HeavyOps-LargeMsgs"),
    AlgorithmSpec("HillClimbing", "FL-TieResolver2"),
    AlgorithmSpec("Genetic"),
    AlgorithmSpec("SimulatedAnnealing", "HeavyOps-LargeMsgs"),
    AlgorithmSpec("SimulatedAnnealing", "FL-TieResolver2"),
    AlgorithmSpec("HillClimbing"),
)
