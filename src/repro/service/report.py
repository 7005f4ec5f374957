"""Service-level summary of a multi-query scheduler run.

A :class:`ServiceReport` aggregates the per-query
:class:`~repro.service.query.QueryResult` s of one
:class:`~repro.service.scheduler.MaxScheduler` run into the numbers an
operator watches: completion/shed counts, latency percentiles, queue
wait, SLO attainment, accuracy, throughput and plan-cache efficiency.

Percentiles use the deterministic nearest-rank definition from
:mod:`repro.obs.stats` (the smallest sample at or above the requested
rank) — the same one the metrics histograms use, so a service report and
a scraped ``service.query_latency`` histogram always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.attribution import ComponentStat, render_attribution
from repro.obs.slo import HealthStatus
from repro.obs.stats import percentile
from repro.service.deadline import DEADLINE_OUTCOMES
from repro.service.query import QueryResult, QueryState


@dataclass(frozen=True)
class ServiceReport:
    """Outcome of one scheduler run over a workload.

    Attributes:
        results: one entry per query, in ``query_id`` order (shed
            queries included).
        makespan: simulated seconds from start to the last completion.
        ticks: scheduler ticks executed (including outage-only ticks).
        shared_rounds: shared platform rounds actually posted.
        questions_posted: distinct questions over all shared rounds
            (fault re-posts counted once per question).
        cache_hits / cache_misses / cache_evictions: plan-cache traffic.
        attribution: aggregated per-component latency attribution
            (total/p50/p95/share per component), present only when the
            run was traced — with tracing off the report is bit-identical
            to the attribution-less one.
        health: the SLO engine's final aggregate health, present only
            when an engine was armed — with the engine off the report is
            bit-identical to the health-less one.
    """

    results: Tuple[QueryResult, ...]
    makespan: float
    ticks: int
    shared_rounds: int
    questions_posted: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    attribution: Optional[Tuple[ComponentStat, ...]] = None
    health: Optional[HealthStatus] = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> Tuple[QueryResult, ...]:
        return tuple(
            r for r in self.results if r.state is QueryState.COMPLETED
        )

    @property
    def degraded(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.state is QueryState.DEGRADED)

    @property
    def shed(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.state is QueryState.SHED)

    @property
    def finished(self) -> Tuple[QueryResult, ...]:
        """Queries that ran to a declared winner (completed + degraded)."""
        return tuple(r for r in self.results if r.finished)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def accuracy(self) -> Optional[float]:
        """Fraction of finished queries whose winner is their true MAX."""
        finished = self.finished
        if not finished:
            return None
        return sum(r.correct for r in finished) / len(finished)

    @property
    def mean_queue_wait(self) -> Optional[float]:
        finished = self.finished
        if not finished:
            return None
        return sum(r.queue_wait for r in finished) / len(finished)

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of SLO-carrying finished queries that met their SLO."""
        scored = [r for r in self.finished if r.slo_met is not None]
        if not scored:
            return None
        return sum(r.slo_met for r in scored) / len(scored)

    @property
    def deadline_attainment(self) -> Optional[Dict[str, int]]:
        """Terminal deadline outcomes, ``{met, degraded, shed, exceeded}``.

        ``None`` when no query carried a latency budget — a deadline-free
        run's report stays identical to one from before deadlines existed.
        """
        scored = [
            r for r in self.results if r.deadline_outcome is not None
        ]
        if not scored:
            return None
        counts = {outcome: 0 for outcome in DEADLINE_OUTCOMES}
        for r in scored:
            counts[r.deadline_outcome] = counts.get(r.deadline_outcome, 0) + 1
        return counts

    @property
    def throughput_per_hour(self) -> float:
        """Finished queries per simulated hour of makespan."""
        if self.makespan <= 0:
            return 0.0
        return len(self.finished) * 3600.0 / self.makespan

    def latency_percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile of finished-query latency."""
        finished = self.finished
        if not finished:
            return None
        return percentile([r.latency for r in finished], p)

    @property
    def p50_latency(self) -> Optional[float]:
        return self.latency_percentile(50)

    @property
    def p95_latency(self) -> Optional[float]:
        return self.latency_percentile(95)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, per_query: bool = False) -> str:
        """Human-readable report block (CLI ``serve`` output).

        Args:
            per_query: also list one line per query.
        """

        def fmt(value: Optional[float], suffix: str = "") -> str:
            return "-" if value is None else f"{value:.1f}{suffix}"

        def pct(value: Optional[float]) -> str:
            return "-" if value is None else f"{100 * value:.0f}%"

        lines = [
            f"queries:          {self.n_queries} "
            f"({len(self.completed)} completed, {len(self.degraded)} "
            f"degraded, {len(self.shed)} shed)",
            f"makespan:         {self.makespan:.1f} s over "
            f"{self.shared_rounds} shared rounds ({self.ticks} ticks)",
            f"throughput:       {self.throughput_per_hour:.1f} queries/h",
            f"latency p50/p95:  {fmt(self.p50_latency, ' s')} / "
            f"{fmt(self.p95_latency, ' s')}",
            f"mean queue wait:  {fmt(self.mean_queue_wait, ' s')}",
            f"SLO attainment:   {pct(self.slo_attainment)}",
            f"accuracy:         {pct(self.accuracy)}",
            f"questions posted: {self.questions_posted}",
            f"plan cache:       {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"(hit rate {100 * self.cache_hit_rate:.0f}%, "
            f"{self.cache_evictions} evictions)",
        ]
        attainment = self.deadline_attainment
        if attainment is not None:
            # Only deadline-carrying runs print the line, so a
            # deadline-free report renders byte-identically to before.
            breakdown = ", ".join(
                f"{count} {outcome}"
                for outcome, count in attainment.items()
                if count
            )
            lines.insert(
                6, f"deadlines:        {breakdown}"
            )
        if self.health is not None:
            # Only SLO-armed runs print the line, so an engine-off
            # report renders byte-identically to before.
            lines.append(f"health:           {self.health.describe()}")
        if self.attribution is not None:
            lines.append("")
            lines.extend(render_attribution(self.attribution))
        if per_query:
            lines.append("")
            for r in self.results:
                if r.state is QueryState.SHED:
                    lines.append(
                        f"  query {r.spec.query_id}: shed ({r.shed_reason})"
                    )
                    continue
                slo = "" if r.slo_met is None else (
                    ", SLO met" if r.slo_met else ", SLO MISSED"
                )
                deadline = (
                    ""
                    if r.deadline_outcome is None
                    else f", deadline {r.deadline_outcome}"
                )
                verdict = "correct" if r.correct else "WRONG"
                lines.append(
                    f"  query {r.spec.query_id}: {r.state.value}, "
                    f"MAX={r.winner} ({verdict}) in {r.rounds} rounds / "
                    f"{r.questions_posted} questions, latency {r.latency:.1f} s "
                    f"(wait {r.queue_wait:.1f} s){slo}{deadline}"
                )
        return "\n".join(lines)
