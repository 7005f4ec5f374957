"""repro.service — concurrent multi-query MAX scheduling on a shared crowd.

The paper's solvers optimize one MAX query in isolation; this subsystem
runs *many* queries against one shared (possibly faulty) platform:

* :class:`MaxScheduler` — admits queries, plans them with tDP through a
  shared LRU :class:`PlanCache`, and coalesces all pending rounds each
  tick into shared platform rounds under a :class:`BatchingPolicy` with
  admission control and backpressure;
* :mod:`repro.service.workload` — seeded synthetic workloads with named
  presets (``smoke``, ``steady``, ``burst``, ``repeated``, ``sla``);
* :class:`ServiceReport` — per-query latency, SLO attainment, queue wait
  and cache hit rate, rendered by ``tdp-repro serve``.

Runs are deterministic given the seed, including under fault injection::

    from repro.core.latency import mturk_car_latency
    from repro.service import (
        MaxScheduler, generate_workload, workload_by_name,
    )

    specs = generate_workload(workload_by_name("burst"), seed=0)
    report = MaxScheduler(specs, mturk_car_latency(), seed=0).run()
    print(report.render())
"""

from repro.service.admission import (
    OVERLOAD_POLICIES,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.service.deadline import (
    DEADLINE_DEGRADED,
    DEADLINE_EXCEEDED,
    DEADLINE_MET,
    DEADLINE_OUTCOMES,
    DEADLINE_SHED,
    BrownoutConfig,
    BrownoutController,
    LatencyBudget,
)
from repro.service.journal import (
    JOURNAL_VERSION,
    JournalContents,
    SchedulerJournal,
    encode_record,
    fold_finished_state,
    read_journal,
    recover_scheduler,
    restore_scheduler_state,
    scheduler_from_header,
    service_config_from_dict,
    snapshot_scheduler,
)
from repro.service.plan_cache import PlanCache, PlanCacheStats, PlanKey
from repro.service.policies import (
    BatchingPolicy,
    FIFOPolicy,
    FairSharePolicy,
    PriorityPolicy,
    available_policies,
    policy_by_name,
)
from repro.service.query import QueryResult, QuerySpec, QueryState
from repro.service.report import ServiceReport
from repro.service.scheduler import ActiveQuery, MaxScheduler, ServiceConfig
from repro.service.telemetry import (
    TICK_HISTORY_LIMIT,
    TickSample,
    alert_transitions_from_records,
    follow_samples,
    samples_from_journal,
    samples_from_records,
)
from repro.service.workload import (
    WorkloadConfig,
    available_workloads,
    generate_workload,
    workload_by_name,
)

__all__ = [
    # queries
    "QuerySpec",
    "QueryResult",
    "QueryState",
    # plan cache
    "PlanKey",
    "PlanCache",
    "PlanCacheStats",
    # policies
    "BatchingPolicy",
    "FIFOPolicy",
    "PriorityPolicy",
    "FairSharePolicy",
    "available_policies",
    "policy_by_name",
    # admission
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "OVERLOAD_POLICIES",
    # scheduler
    "MaxScheduler",
    "ServiceConfig",
    "ActiveQuery",
    # deadlines / brownout
    "LatencyBudget",
    "BrownoutConfig",
    "BrownoutController",
    "DEADLINE_MET",
    "DEADLINE_DEGRADED",
    "DEADLINE_SHED",
    "DEADLINE_EXCEEDED",
    "DEADLINE_OUTCOMES",
    # workload
    "WorkloadConfig",
    "available_workloads",
    "workload_by_name",
    "generate_workload",
    # report
    "ServiceReport",
    # telemetry
    "TickSample",
    "TICK_HISTORY_LIMIT",
    "samples_from_records",
    "samples_from_journal",
    "follow_samples",
    "alert_transitions_from_records",
    # journal / recovery
    "SchedulerJournal",
    "JournalContents",
    "JOURNAL_VERSION",
    "encode_record",
    "fold_finished_state",
    "read_journal",
    "recover_scheduler",
    "restore_scheduler_state",
    "scheduler_from_header",
    "service_config_from_dict",
    "snapshot_scheduler",
]
