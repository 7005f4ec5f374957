"""Tick outcome counters are kept as queries finish, not rescanned.

Every :class:`~repro.service.TickSample` must carry exactly the counts a
brute-force pass over the finished results gives — live, and after
``recover_scheduler`` re-derives them from a snapshot.
"""

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.service import (
    MaxScheduler,
    QueryState,
    SchedulerJournal,
    ServiceConfig,
    WorkloadConfig,
    generate_workload,
    recover_scheduler,
)
from repro.service.deadline import DEADLINE_MET


#: Tight admission, lossy answers and deadlines: queries complete, degrade
#: and are shed, and deadlines are met, exceeded and degraded.
WORKLOAD = WorkloadConfig(
    n_queries=60,
    mean_interarrival=300.0,
    sizes=(8, 16, 32),
    budget_factors=(3.0, 6.0),
    priorities=(0, 1),
    deadline_seconds=3000.0,
)


def _scheduler(journal=None):
    return MaxScheduler(
        generate_workload(WORKLOAD, seed=5),
        mturk_car_latency(),
        seed=5,
        config=ServiceConfig(
            max_active_queries=3, max_queue_depth=2, overload_policy="shed"
        ),
        fault_profile=fault_profile_by_name("lossy"),
        retry_policy=RetryPolicy(max_attempts=2),
        journal=journal,
    )


def _recount(results):
    """The per-tick full rescan the scheduler used to do."""
    completed = degraded = shed = met = breached = 0
    wait_total = 0.0
    for result in results:
        if result.state is QueryState.COMPLETED:
            completed += 1
            wait_total += result.queue_wait
        elif result.state is QueryState.DEGRADED:
            degraded += 1
            wait_total += result.queue_wait
        elif result.state is QueryState.SHED:
            shed += 1
        if result.deadline_outcome == DEADLINE_MET:
            met += 1
        elif result.deadline_outcome is not None:
            breached += 1
    finished = completed + degraded
    return {
        "completed": completed,
        "degraded": degraded,
        "shed": shed,
        "deadline_met": met,
        "deadline_breached": breached,
        "queue_wait_mean": wait_total / finished if finished else 0.0,
    }


def _sampled(sample):
    return {key: getattr(sample, key) for key in _recount(())}


def _step_checking(scheduler, max_steps=None):
    """Step, comparing each new tick's sample with a recount; returns the
    number of steps taken."""
    steps = 0
    seen = scheduler.ticks
    while (max_steps is None or steps < max_steps) and scheduler.step():
        steps += 1
        if scheduler.ticks != seen:
            seen = scheduler.ticks
            assert _sampled(scheduler.tick_history[-1]) == _recount(
                scheduler._results
            )
    return steps


def test_every_live_tick_matches_a_recount():
    scheduler = _scheduler()
    _step_checking(scheduler)
    states = {result.state for result in scheduler._results}
    # The workload exercises every outcome the counters track.
    assert {QueryState.COMPLETED, QueryState.DEGRADED, QueryState.SHED} <= states
    assert any(r.deadline_outcome == DEADLINE_MET for r in scheduler._results)
    assert any(
        r.deadline_outcome not in (None, DEADLINE_MET)
        for r in scheduler._results
    )


@pytest.mark.parametrize("crash_after", [8, 20])
def test_recovered_ticks_match_a_recount(tmp_path, crash_after):
    path = tmp_path / "crash.jsonl"
    journal = SchedulerJournal.create(path, snapshot_interval=3)
    victim = _scheduler(journal=journal)
    _step_checking(victim, max_steps=crash_after)
    assert victim._results, "crash point must follow some finished queries"
    journal.close()

    recovered = recover_scheduler(path)
    recount = _recount(recovered._results)
    counts = recovered._outcomes
    assert {
        "completed": counts.completed,
        "degraded": counts.degraded,
        "shed": counts.shed,
        "deadline_met": counts.deadline_met,
        "deadline_breached": counts.deadline_breached,
    } == {key: value for key, value in recount.items() if key != "queue_wait_mean"}
    _step_checking(recovered)
    report = recovered.run()
    recovered.journal.close()
    assert report == _scheduler().run()
