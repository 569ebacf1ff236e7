"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subclasses identify the layer that
failed: workflow modelling, network modelling, deployment, algorithms, the
simulator, or the experiment harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class WorkflowError(ReproError):
    """A workflow is structurally invalid or an operation is misused."""


class MalformedWorkflowError(WorkflowError):
    """A workflow violates the well-formedness rules of the paper.

    Well-formedness (paper, section 2.2) requires that every decision node
    ``a`` has a complement node ``/a`` and that all paths leaving ``a``
    reach ``/a`` before leaving the region -- decision nodes behave like
    balanced parentheses.
    """


class UnknownOperationError(WorkflowError):
    """An operation name was referenced that the workflow does not contain."""


class DuplicateOperationError(WorkflowError):
    """An operation with the same name was added twice."""


class DuplicateTransitionError(WorkflowError):
    """A second message between the same ordered pair of operations.

    The paper assumes each ordered pair of operations exchanges at most one
    message, so a duplicate transition is a modelling error.
    """


class NetworkError(ReproError):
    """A server network is structurally invalid or a server is misused."""


class UnknownServerError(NetworkError):
    """A server name was referenced that the network does not contain."""


class DuplicateServerError(NetworkError):
    """A server with the same name was added twice."""


class DisconnectedNetworkError(NetworkError):
    """Two servers that must communicate have no connecting path."""


class TopologyFormatError(NetworkError):
    """A topology file could not be parsed into a :class:`ServerNetwork`.

    Raised by :func:`repro.scenarios.load_topology` for unreadable files,
    malformed SNDlib-style sections, unknown node references and invalid
    numeric fields -- anywhere the problem is "the topology document is
    bad" rather than "the network API was misused".
    """


class DeploymentError(ReproError):
    """A mapping of operations to servers is invalid or incomplete."""


class IncompleteMappingError(DeploymentError):
    """A cost evaluation was requested for a partially assigned mapping."""


class AlgorithmError(ReproError):
    """A deployment algorithm was configured or applied incorrectly."""


class UnsupportedTopologyError(AlgorithmError):
    """An algorithm received a workflow/network topology it cannot handle.

    The paper pairs algorithm families with configurations (Line-Line,
    Line-Bus, Graph-Bus); applying e.g. the Line-Line algorithm to a random
    graph raises this error rather than silently producing nonsense.
    """


class SearchSpaceTooLargeError(AlgorithmError):
    """The exhaustive algorithm refused to enumerate N**M configurations."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """The experiment harness was configured incorrectly."""


class ServiceError(ReproError):
    """The fleet controller was misused or a scenario is invalid."""


class ValidationError(ReproError):
    """A persisted document or parameter set failed validation.

    Raised by the durable-service layer when a checkpoint file is
    missing, malformed, truncated, or fails its replay verification --
    anywhere the problem is "the data handed to us is bad" rather than
    "the API was misused" (:class:`ServiceError`).
    """
