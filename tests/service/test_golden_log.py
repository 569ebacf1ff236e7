"""Golden decision log: the canonical rendering is pinned byte for byte.

Satellite regression: numeric details used to be formatted at call
sites with a mix of ``str(float)`` (repr, platform/version sensitive)
and ad-hoc precisions. Every detail now funnels through
:func:`repro.service.log.format_detail` (floats pinned to ``.6f``), so
the full log text of a fixed mini-scenario can be asserted literally --
any accidental formatting drift breaks this file, not a downstream
replay comparison.
"""

from __future__ import annotations

import hashlib

from repro.core.clock import StepClock
from repro.service.controller import FleetController
from repro.service.events import (
    DeployRequest,
    ServerFailed,
    Tick,
    UndeployRequest,
)
from repro.service.log import format_detail
from repro.service.scenarios import builtin_scenarios, replay

from .conftest import make_line

#: sha256 of every builtin scenario's log text, replayed in
#: ``builtin_scenarios()`` order with seeds 1, 2 and 3 and concatenated.
ALL_SCENARIOS_DIGEST = (
    "dbd9fa760c0037913576a8c6eaada3b21ceb4ccbaeb403f8da669e9564746ca6"
)

GOLDEN_LOG = """\
#0000 deploy alpha admitted latency=0.001000s algorithm=HeavyOps-LargeMsgs balance=0.720588 objective=0.019787 operations=3 projected_load=0.010000 servers_used=3
#0001 deploy beta admitted latency=0.001000s algorithm=HeavyOps-LargeMsgs balance=0.615385 objective=0.030050 operations=2 projected_load=0.025000 servers_used=2
#0002 tick fleet steady latency=0.001000s balance=0.615385 drift=0.249584 objective=0.030050
#0003 server-failed S3 recovered latency=0.001000s balance=0.960000 objective=0.038383 orphans=2 servers_left=3 tenants_affected=2
#0004 undeploy alpha removed latency=0.001000s balance=0.563218 objective=0.043939 operations=3
"""


class TestFormatDetail:
    def test_floats_pinned_to_six_decimals(self):
        assert format_detail(0.25) == "0.250000"
        assert format_detail(1 / 3) == "0.333333"
        assert format_detail(2.0) == "2.000000"

    def test_no_repr_noise_on_unrepresentable_floats(self):
        # str(0.1 + 0.2) == '0.30000000000000004'; the canonical form
        # must not leak that
        assert format_detail(0.1 + 0.2) == "0.300000"

    def test_non_floats_pass_through_str(self):
        assert format_detail(7) == "7"
        assert format_detail("steady") == "steady"
        assert format_detail(True) == "True"

    def test_bools_are_not_floats(self):
        # bool is an int subclass, not a float -- no .6f applied
        assert format_detail(False) == "False"


class TestGoldenLog:
    def test_mini_scenario_log_is_byte_identical(self, fleet_network):
        controller = FleetController(fleet_network, clock=StepClock())
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6, 30e6]))
        )
        controller.handle(
            DeployRequest("beta", make_line("beta", [40e6, 50e6]))
        )
        controller.handle(Tick())
        controller.handle(ServerFailed("S3"))
        controller.handle(UndeployRequest("alpha"))
        assert controller.log.to_text() == GOLDEN_LOG

    def test_every_builtin_scenario_log_is_byte_identical(self):
        digest = hashlib.sha256()
        for name in builtin_scenarios():
            for seed in (1, 2, 3):
                digest.update(replay(name, seed).log.to_text().encode())
        assert digest.hexdigest() == ALL_SCENARIOS_DIGEST

    def test_every_detail_value_is_canonical(self, fleet_network):
        """No log detail may carry more than 6 decimals or repr noise."""
        controller = FleetController(fleet_network, clock=StepClock())
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6]))
        )
        controller.handle(Tick())
        for record in controller.log:
            for _, value in record.details:
                if value.replace(".", "", 1).replace("-", "", 1).isdigit():
                    if "." in value:
                        assert len(value.split(".")[1]) == 6, (
                            record,
                            value,
                        )
