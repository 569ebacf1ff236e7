"""Fault injection: crashed workers must still account their spend.

Satellite regression: a worker that raised mid-search used to leave its
un-flushed evaluation delta off the shared ledger, so the global budget
accounting under-counted after every crash. The worker entry point now
flushes in a ``finally`` block and the bridge tracks the last progress
callback, so the ledger ends correct to the flush granularity even when
the search dies.
"""

from __future__ import annotations

import pytest

from repro.algorithms.runtime import CancelToken, SearchProgress
from repro.core.cost import CostModel
from repro.network.topology import bus_network
from repro.parallel.budget import InlineLedger, WorkerBridge
from repro.parallel.worker import SearchTask, payload_from, run_search_task

from ..service.conftest import make_line


@pytest.fixture
def payload():
    workflow = make_line("faulty", [10e6, 20e6, 30e6, 40e6])
    network = bus_network([1e9, 1e9, 2e9], 1e8)
    return payload_from(workflow, network, CostModel(workflow, network))


class _CrashingAlgorithm:
    """Reports progress a few times, then dies mid-search."""

    name = "Crasher"

    def __init__(self, evaluations_before_crash: int):
        self.evaluations_before_crash = evaluations_before_crash

    def deploy_with_report(self, workflow, network, **kwargs):
        on_progress = kwargs["on_progress"]
        for done in range(1, self.evaluations_before_crash + 1):
            on_progress(
                SearchProgress(
                    steps=done,
                    evaluations=done,
                    best_value=None,
                    elapsed_s=0.0,
                )
            )
        raise RuntimeError("worker crashed mid-search")


class TestSearchTaskCrash:
    def test_crash_still_flushes_seen_evaluations(self, payload):
        """121 evaluations reported, flush_every=50: without the
        ``finally`` flush the ledger would stop at 100."""
        ledger = InlineLedger()
        task = SearchTask(
            index=0,
            label="crash",
            payload=payload,
            algorithm=_CrashingAlgorithm(121),
            seed=0,
            flush_every=50,
        )
        with pytest.raises(RuntimeError, match="crashed"):
            run_search_task(task, ledger)
        assert ledger.evaluations == 121

    def test_crash_before_any_progress_flushes_nothing(self, payload):
        ledger = InlineLedger()
        task = SearchTask(
            index=0,
            label="crash",
            payload=payload,
            algorithm=_CrashingAlgorithm(0),
            seed=0,
        )
        with pytest.raises(RuntimeError):
            run_search_task(task, ledger)
        assert ledger.evaluations == 0


class TestBridgeExceptionAccounting:
    def test_finish_without_total_flushes_last_seen(self):
        ledger = InlineLedger()
        bridge = WorkerBridge(ledger, CancelToken(), flush_every=100)
        bridge(
            SearchProgress(
                steps=42, evaluations=42, best_value=None, elapsed_s=0.0
            )
        )
        assert ledger.evaluations == 0  # below the flush threshold
        bridge.finish()
        assert ledger.evaluations == 42

    def test_finish_is_idempotent(self):
        ledger = InlineLedger()
        bridge = WorkerBridge(ledger, CancelToken(), flush_every=10)
        bridge(
            SearchProgress(
                steps=7, evaluations=7, best_value=None, elapsed_s=0.0
            )
        )
        bridge.finish()
        bridge.finish()
        bridge.finish(7)
        assert ledger.evaluations == 7

    def test_finish_total_never_undercounts_seen(self):
        """finish(total) with a stale total keeps the larger seen count."""
        ledger = InlineLedger()
        bridge = WorkerBridge(ledger, CancelToken(), flush_every=100)
        bridge(
            SearchProgress(
                steps=50, evaluations=50, best_value=None, elapsed_s=0.0
            )
        )
        bridge.finish(30)
        assert ledger.evaluations == 50
