"""The fleet controller service: long-running multi-tenant deployment.

The paper's algorithms place one workflow once. This package is the
layer its motivating scenario (section 2.1) actually calls for: a
provider that keeps a fleet of servers hosting many tenants' workflows
over time, absorbing arrivals, departures, server failures, new
capacity, and fairness drift -- deterministically, so every lifecycle
can be replayed and asserted upon byte for byte.

Modules
-------
:mod:`repro.service.events`
    The typed events the controller consumes.
:mod:`repro.service.state`
    :class:`FleetState`: the live fleet picture and its shared caches.
:mod:`repro.service.controller`
    :class:`FleetController`: the event loop and its policies.
:mod:`repro.service.log`
    The append-only decision log and the aggregate metrics snapshot.
:mod:`repro.service.scenarios`
    Seeded builtin scenarios and the replay driver behind
    ``repro fleet``.
:mod:`repro.service.queue`
    The priority work queue and the :class:`FleetService` façade --
    submit events, reprioritize queued-but-unstarted jobs, drain.
:mod:`repro.service.checkpoint`
    Durable checkpoints: verified serialise/replay/restore of a
    controller (plus any still-pending events).
:mod:`repro.service.server`
    The stdlib-only REST façade (``FleetApp`` + ``make_server``).
"""

from repro.core.clock import StepClock
from repro.service.checkpoint import (
    Checkpoint,
    load_checkpoint,
    restore_controller,
    write_checkpoint,
)
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    DeployRequest,
    FleetEvent,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
)
from repro.service.log import FleetLog, FleetMetrics, LogRecord, format_detail
from repro.service.queue import (
    DEFAULT_PRIORITIES,
    DRIFT_PRIORITY,
    PREEMPT_PRIORITY,
    FleetService,
    Job,
    WorkQueue,
)
from repro.service.scenarios import (
    Scenario,
    build_scenario,
    builtin_scenarios,
    replay,
)
from repro.service.server import FleetApp, make_server
from repro.service.state import (
    FleetSnapshot,
    FleetState,
    TenantDeployment,
    TenantPrice,
    jain_index,
)

__all__ = [
    "Checkpoint",
    "DEFAULT_PRIORITIES",
    "DRIFT_PRIORITY",
    "DeployRequest",
    "FleetApp",
    "FleetConfig",
    "FleetController",
    "FleetEvent",
    "FleetLog",
    "FleetMetrics",
    "FleetService",
    "FleetSnapshot",
    "FleetState",
    "Job",
    "LogRecord",
    "PREEMPT_PRIORITY",
    "Scenario",
    "ServerFailed",
    "ServerJoined",
    "StepClock",
    "TenantDeployment",
    "TenantPrice",
    "Tick",
    "UndeployRequest",
    "WorkQueue",
    "build_scenario",
    "builtin_scenarios",
    "format_detail",
    "jain_index",
    "load_checkpoint",
    "make_server",
    "replay",
    "restore_controller",
    "write_checkpoint",
]
