"""The three benchmark workloads: inputs, drivers and output checks.

One *episode* of a workload is generated from a seed alone,
single-threaded, so the same seed always yields the same inputs and the
same outputs:

* ``steady`` — one :class:`~repro.service.MaxScheduler` over 2000 queries
  of the ``steady`` preset mix, posting directly to one simulated
  platform (no journal, fleet, deadlines or SLO engine).
* ``fleet`` — the same scheduler over the ``outage-trio`` fleet with a
  deadline-carrying priority mix near fleet capacity: least-loaded
  routing, hedging, brownout, the SLO engine, RWL retries and a
  write-ahead journal, followed by ``recover_scheduler`` on the finished
  journal.
* ``plan`` — 240 offline planning requests with no crowd: cold
  tDP allocations of distinct ``(c0, b, latency model)`` tuples through a
  plan cache, interleaved with exact maxRC worst-case analyses.

The program only ever receives the generated inputs; the checks below
read its outputs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency, PowerLawLatency, mturk_car_latency
from repro.core.questions import tournament_questions
from repro.core.registry import allocator_by_name
from repro.crowd.faults import RetryPolicy
from repro.crowd.multibackend import HedgeConfig, backend_preset_by_name
from repro.engine.adversarial import AdversarialMaxEngine
from repro.obs.slo import default_slo_config
from repro.selection.ct import ct25
from repro.selection.spread import Spread
from repro.selection.tournament import TournamentFormation
from repro.service import (
    BrownoutConfig,
    MaxScheduler,
    PlanCache,
    PlanKey,
    QueryState,
    SchedulerJournal,
    ServiceConfig,
    WorkloadConfig,
    generate_workload,
    workload_by_name,
)
from repro.service import journal as journal_module

#: Workload name -> what one of its operations is.
WORKLOADS: Dict[str, str] = {
    "steady": "drained query",
    "fleet": "drained query",
    "plan": "planning request",
}
#: Queries per ``steady``/``fleet`` episode.
EPISODE_QUERIES = 2000
#: Requests per ``plan`` episode: every 4th is a maxRC analysis.
PLAN_REQUESTS = 240
#: c0 of the maxRC analyses.  Today's exact MIS on a Tournament round
#: graph of this size takes about 50-70 ms on a 2-vCPU Xeon VM and
#: roughly doubles with every 2 more elements, so the analyses are a large
#: share of the work yet short enough that many fit in one run.
ANALYSIS_ELEMENTS = 34
ANALYSIS_SELECTORS = (
    lambda: TournamentFormation(spend_leftover=False),
    Spread,
    ct25,
)

#: Deadline-carrying priority mix arriving near the outage-trio fleet's
#: capacity: brownout sheds, hedges fire and the outage window trips the
#: breakers of the ``balanced`` backend on every seed.
FLEET_WORKLOAD = WorkloadConfig(
    n_queries=EPISODE_QUERIES,
    mean_interarrival=50.0,
    sizes=(16, 24, 40),
    budget_factors=(4.0, 5.0, 8.0),
    priorities=(0, 1, 2),
    deadline_seconds=3000.0,
)
FLEET_CONFIG = ServiceConfig(
    policy="priority",
    routing="least-loaded",
    hedge=HedgeConfig(hedge_after=300.0),
    brownout=BrownoutConfig(queue_wait_threshold=600.0),
    slo=default_slo_config(),
)
FLEET_RETRY = RetryPolicy(max_attempts=3)


# ----------------------------------------------------------------------
# Episode results
# ----------------------------------------------------------------------
@dataclass
class Episode:
    """What one episode produced and how long its phases took.

    ``op_s`` holds one wall time per operation: a ``MaxScheduler.step()``
    for the serve workloads, a request for ``plan``.  ``run_s`` is the
    timed phase (all operations, plus the journal's completion record).
    """

    setup_s: float
    op_s: List[float]
    run_s: float
    ops_done: int
    #: Queries completed by their deadline with the true max, or requests
    #: passing every check.
    served: int
    failures: List[str]
    digest: str
    sim_latencies: List[float]
    makespan: float
    questions: int
    drained_curve: List[int] = field(default_factory=list)
    journal_bytes: int = 0
    last_snapshot_bytes: int = 0
    recover_s: float = 0.0
    hedges: int = 0
    hedge_waste: int = 0
    brownout_transitions: int = 0
    shed: int = 0

    @property
    def late_cost_ratio(self) -> float:
        """Wall seconds per drained query, last quarter of steps over first."""
        quarter = len(self.op_s) // 4
        if quarter == 0 or not self.drained_curve:
            return 0.0
        curve = self.drained_curve

        def cost(lo: int, hi: int) -> float:
            drained = curve[hi - 1] - (curve[lo - 1] if lo else 0)
            return sum(self.op_s[lo:hi]) / max(drained, 1)

        n = len(self.op_s)
        return cost(n - quarter, n) / cost(0, quarter)


def _report_digest(report) -> str:
    payload = repr(
        (report.results, report.makespan, report.ticks, report.questions_posted)
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# steady / fleet
# ----------------------------------------------------------------------
def _steady_scheduler(seed: int, n_queries: int, workdir: Path):
    specs = generate_workload(
        workload_by_name("steady"), seed=seed, n_queries=n_queries
    )
    return MaxScheduler(specs, mturk_car_latency(), seed=seed), None


def _fleet_scheduler(seed: int, n_queries: int, workdir: Path):
    specs = generate_workload(FLEET_WORKLOAD, seed=seed, n_queries=n_queries)
    journal = SchedulerJournal.create(workdir / f"fleet-{seed}.jsonl")
    scheduler = MaxScheduler(
        specs,
        mturk_car_latency(),
        seed=seed,
        config=FLEET_CONFIG,
        retry_policy=FLEET_RETRY,
        journal=journal,
        backends=backend_preset_by_name("outage-trio"),
    )
    return scheduler, journal


def _crowd_copies(scheduler: MaxScheduler) -> int:
    """Question copies the simulated crowd received (mirrors and retries too)."""
    if scheduler.router is not None:
        return sum(b.inner.stats.questions_posted for b in scheduler.router.backends)
    platform = scheduler.platform
    inner = getattr(platform, "inner", platform)
    return inner.stats.questions_posted


def _last_snapshot_bytes(path: Path) -> int:
    size = 0
    with open(path, "rb") as handle:
        for line in handle:
            if line.startswith(b'{"record":"snapshot"'):
                size = len(line)
    return size


def _check_report(report, n_queries: int) -> List[str]:
    failures = []
    ids = [r.spec.query_id for r in report.results]
    if sorted(ids) != list(range(n_queries)):
        failures.append(
            f"{len(ids)} results for {n_queries} queries "
            f"({len(set(ids))} distinct ids)"
        )
    by_state = {state: 0 for state in QueryState}
    for result in report.results:
        by_state[result.state] += 1
        if result.state is QueryState.COMPLETED and not result.correct:
            failures.append(
                f"query {result.spec.query_id} completed with winner "
                f"{result.winner}, not its true max"
            )
    accounted = (
        by_state[QueryState.COMPLETED]
        + by_state[QueryState.DEGRADED]
        + by_state[QueryState.SHED]
    )
    if accounted != n_queries:
        failures.append(
            f"completed+degraded+shed = {accounted}, attempted {n_queries}"
        )
    return failures


def _served(result) -> bool:
    return (
        result.state is QueryState.COMPLETED
        and result.correct
        and result.deadline_outcome in (None, "met")
    )


def run_serve_episode(
    kind: str,
    seed: int,
    workdir: Path,
    n_queries: int = EPISODE_QUERIES,
    on_step: Optional[Callable[[int], None]] = None,
) -> Episode:
    """Generate, drive and check one ``steady`` or ``fleet`` episode."""
    build = _fleet_scheduler if kind == "fleet" else _steady_scheduler
    clock = time.perf_counter
    start = clock()
    scheduler, journal = build(seed, n_queries, workdir)
    setup_s = clock() - start

    op_s: List[float] = []
    curve: List[int] = []
    history = scheduler.tick_history
    drained = 0
    run_start = clock()
    while True:
        if on_step is not None:
            on_step(len(op_s))
        t0 = clock()
        more = scheduler.step()
        op_s.append(clock() - t0)
        if not more:
            op_s.pop()  # the final call only reports "drained"
            break
        if history:
            last = history[-1]
            drained = last.completed + last.degraded + last.shed
        curve.append(drained)
    # Drained: run() only writes the journal's completion record and
    # builds the report.
    report = scheduler.run()
    run_s = clock() - run_start
    if curve:
        curve[-1] = n_queries  # queries shed on idle steps surface late

    failures = _check_report(report, n_queries)
    digest = _report_digest(report)
    episode = Episode(
        setup_s=setup_s,
        op_s=op_s,
        run_s=run_s,
        ops_done=n_queries,
        served=sum(_served(r) for r in report.results),
        failures=failures,
        digest=digest,
        sim_latencies=[r.latency for r in report.finished],
        makespan=report.makespan,
        questions=_crowd_copies(scheduler),
        drained_curve=curve,
        shed=len(report.shed),
    )
    if scheduler.router is not None:
        episode.hedges = scheduler.router.hedges
        episode.hedge_waste = scheduler.router.hedge_waste
    if scheduler.brownout is not None:
        episode.brownout_transitions = scheduler.brownout.transitions
    if journal is not None:
        journal.close()
        path = journal.path
        episode.journal_bytes = path.stat().st_size
        episode.last_snapshot_bytes = _last_snapshot_bytes(path)
        t0 = clock()
        recovered = journal_module.recover_scheduler(path, resume_journal=False)
        episode.recover_s = clock() - t0
        if _report_digest(recovered.run()) != digest:
            failures.append(
                f"recovery of episode {seed} diverged from the live report"
            )
        path.unlink()
    return episode


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanRequest:
    """One offline request: a tDP plan, or a maxRC worst-case analysis."""

    n_elements: int
    budget: int
    latency: object
    selector: Optional[int] = None  # index into ANALYSIS_SELECTORS


def generate_plan_requests(seed: int) -> List[PlanRequest]:
    """Distinct (c0, b, latency model) tuples, every 4th an analysis.

    The tDP requests are a Latin-hypercube sample of c0 in [20, 200] and
    b / c0 in [1.5, 8] (one draw from every stratum of each), so the
    spread of sizes is nearly the same under every seed.
    """
    rng = np.random.default_rng((seed, 29))
    n_plans = PLAN_REQUESTS - PLAN_REQUESTS // 4
    size_strata = rng.permutation(n_plans)
    factor_strata = rng.permutation(n_plans)
    requests: List[PlanRequest] = []
    for index in range(PLAN_REQUESTS):
        if index % 4 == 3:
            c0 = ANALYSIS_ELEMENTS
            budget = int(round(c0 * rng.uniform(4.0, 8.0)))
            requests.append(
                PlanRequest(c0, budget, mturk_car_latency(), (index // 4) % 3)
            )
            continue
        j = index - index // 4
        c0 = 20 + int((size_strata[j] + rng.random()) * 181 / n_plans)
        factor = 1.5 + (factor_strata[j] + rng.random()) * 6.5 / n_plans
        budget = max(c0 - 1, int(round(c0 * factor)))
        if j % 2:
            latency = PowerLawLatency(
                delta=float(rng.uniform(100.0, 400.0)),
                alpha=float(rng.uniform(0.1, 1.0)),
                p=float(rng.uniform(0.5, 1.0)),
            )
        else:
            latency = LinearLatency(
                delta=float(rng.uniform(100.0, 400.0)),
                alpha=float(rng.uniform(0.01, 0.3)),
            )
        requests.append(PlanRequest(c0, budget, latency))
    return requests


def _check_plan(request: PlanRequest, allocation: Allocation) -> List[str]:
    """Feasible, within budget, and no slower than the four heuristics."""
    c0, budget, latency = request.n_elements, request.budget, request.latency
    tag = f"tDP(c0={c0}, b={budget}, {latency!r})"
    sequence = allocation.element_sequence
    if sequence is None or sequence[0] != c0 or sequence[-1] != 1:
        return [f"{tag}: element sequence {sequence} does not run {c0} -> 1"]
    failures = []
    for c_prev, c_next, spent in zip(
        sequence, sequence[1:], allocation.round_budgets
    ):
        if spent < tournament_questions(c_prev, c_next):
            failures.append(
                f"{tag}: round {c_prev}->{c_next} gets {spent} questions"
            )
    if allocation.total_questions > budget:
        failures.append(
            f"{tag}: spends {allocation.total_questions} > {budget}"
        )
    ours = allocation.predicted_latency(latency)
    for name in ("HE", "HF", "uHE", "uHF"):
        theirs = allocator_by_name(name).allocate(c0, budget, latency)
        if theirs.predicted_latency(latency) < ours - 1e-9:
            failures.append(f"{tag}: {name} plans a lower latency")
    return failures


def run_plan_episode(
    seed: int,
    on_step: Optional[Callable[[int], None]] = None,
) -> Episode:
    """Generate, serve and check one episode of planning requests."""
    clock = time.perf_counter
    start = clock()
    requests = generate_plan_requests(seed)
    cache = PlanCache(capacity=PLAN_REQUESTS)
    allocator = allocator_by_name("tDP")
    mturk = mturk_car_latency()
    rng = np.random.default_rng((seed, 31))
    setup_s = clock() - start

    op_s: List[float] = []
    outputs: List[object] = []
    run_start = clock()
    for index, request in enumerate(requests):
        if on_step is not None:
            on_step(index)
        t0 = clock()
        if request.selector is None:
            key = PlanKey.for_query(
                request.n_elements, request.budget, request.latency, 1
            )
            allocation = cache.get(key)
            if allocation is None:
                allocation = allocator.allocate(
                    request.n_elements, request.budget, request.latency
                )
                cache.put(key, allocation)
            output: object = allocation
        else:
            allocation = allocator.allocate(
                request.n_elements, request.budget, mturk
            )
            engine = AdversarialMaxEngine(
                ANALYSIS_SELECTORS[request.selector](), mturk, rng, mode="exact"
            )
            output = engine.run(request.n_elements, allocation)
        op_s.append(clock() - t0)
        outputs.append(output)
    run_s = clock() - run_start

    failures: List[str] = []
    served = 0
    sim_latencies: List[float] = []
    questions = 0
    for request, output in zip(requests, outputs):
        if request.selector is None:
            problems = _check_plan(request, output)
            sim_latencies.append(output.predicted_latency(request.latency))
            questions += output.total_questions
        else:
            problems = []
            if request.selector == 0 and not output.singleton_termination:
                problems.append(
                    f"Tournament maxRC on c0={request.n_elements}, "
                    f"b={request.budget} ends with several survivors"
                )
        failures.extend(problems)
        served += not problems
    digest = hashlib.sha256(
        repr(
            [
                (o.round_budgets, o.element_sequence)
                if isinstance(o, Allocation)
                else (o.winner, o.total_latency, o.singleton_termination)
                for o in outputs
            ]
        ).encode()
    ).hexdigest()
    return Episode(
        setup_s=setup_s,
        op_s=op_s,
        run_s=run_s,
        ops_done=len(requests),
        served=served,
        failures=failures,
        digest=digest,
        sim_latencies=sim_latencies,
        makespan=sum(sim_latencies),
        questions=questions,
    )


def run_episode(
    workload: str,
    seed: int,
    workdir: Path,
    on_step: Optional[Callable[[int], None]] = None,
) -> Episode:
    """Run one episode of *workload* seeded *seed*."""
    if workload == "plan":
        return run_plan_episode(seed, on_step)
    return run_serve_episode(workload, seed, workdir, on_step=on_step)


def warm_up(workload: str, workdir: Path) -> None:
    """Import lazily loaded modules and fill interpreter caches, untimed."""
    if workload == "plan":
        first = generate_plan_requests(0)[0]
        allocator = allocator_by_name("tDP")
        allocator.allocate(first.n_elements, first.budget, first.latency)
        engine = AdversarialMaxEngine(
            TournamentFormation(spend_leftover=False),
            mturk_car_latency(),
            np.random.default_rng(0),
            mode="exact",
        )
        engine.run(20, allocator.allocate(20, 80, mturk_car_latency()))
        return
    run_serve_episode(workload, 0, workdir, n_queries=60)
