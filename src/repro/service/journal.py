"""Write-ahead journal and deterministic crash recovery for the scheduler.

A crowdsourced workload is hours of paid real time; a requester process
that dies mid-workload must not forfeit it.  :class:`SchedulerJournal`
gives :class:`~repro.service.scheduler.MaxScheduler` durability in the
classic database shape:

* an **append-only JSONL log** — one record per state change (admit,
  plan, round posted, answers collected, finalize, shed, deferred, tick,
  alert) so the run is auditable line by line.  Every line ends in a
  CRC32 of the record it carries (:func:`encode_record`);
* **periodic live-state snapshots** — every ``snapshot_interval`` ticks
  the state that can still change is serialized into the log, building
  on the :mod:`repro.persistence` serializers: the waiting and active
  queries (allocations, evidence graphs, per-session RNG bit-generator
  state), the plan-cache contents and, per backend, platform counters,
  fault statistics, circuit breaker and RNG states.

State that only grows is written once, never re-serialized:

* the **backlog** is always a suffix of the header's specs in
  ``(arrival_time, query_id)`` order, so a snapshot stores the index it
  starts at (``backlog_start``);
* each **finished result** is written by the ``finalize`` or ``shed``
  record that creates it, with its ordinal; a snapshot stores only
  ``n_results``;
* the **flight ring**'s entries are the ``tick`` records plus the
  ``alert`` records (without ``now``); a snapshot stores only
  ``{capacity, n}``.

:func:`read_journal` folds the results (by ordinal) and the ring back
from the records before the last intact snapshot and checks them against
that snapshot's counts; a gap is corruption.

Because the scheduler is deterministic given its seed, recovery is exact:
:func:`recover_scheduler` rebuilds the scheduler from the journal header
(same constructor arguments, hence the same ground truth and RNG streams),
restores the last snapshot plus the folded results and ring, and re-runs.
Ticks that ran after the last snapshot but before the crash replay
*identically* — same RNG states, same iteration orders — so the final
:class:`~repro.service.report.ServiceReport` is bit-identical to the
uninterrupted run's, no matter where the kill landed.  :mod:`repro.chaos`
asserts exactly that property.  A resumed journal is first cut back to
the end of that snapshot, so the replayed ticks are not written twice
and ``seq`` runs on without a restart.

Corruption policy (the crash-mid-write shapes):

* missing file, empty file, unparseable header, no intact snapshot, a
  record whose CRC fails before the last line, or a results/ring gap —
  raise :class:`~repro.errors.JournalCorruptError` naming the byte
  offset;
* a bad or unterminated last line is a torn write — drop it, recover
  from the last valid snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import weakref
import zlib
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.multibackend import (
    HedgeConfig,
    backend_spec_from_dict,
    backend_spec_to_dict,
)
from repro.errors import InvalidParameterError, JournalCorruptError
from repro.obs.events import CheckpointWritten, RecoveryCompleted
from repro.obs.metrics import get_registry
from repro.obs.slo import slo_config_from_dict
from repro.obs.tracer import current_tracer
from repro.persistence import (
    allocation_from_dict,
    allocation_to_dict,
    error_model_from_dict,
    error_model_to_dict,
    latency_from_dict,
    latency_to_dict,
    session_from_dict,
    session_to_dict,
    worker_config_from_dict,
    worker_config_to_dict,
)
from repro.service.deadline import BrownoutConfig
from repro.service.plan_cache import PlanCacheStats, PlanKey
from repro.service.query import QueryResult, QuerySpec, QueryState
from repro.service.scheduler import ActiveQuery, MaxScheduler, ServiceConfig
from repro.types import Answer

logger = logging.getLogger(__name__)

#: Bumped on incompatible journal layout changes.  Version 2: live-state
#: snapshots, results and ring entries written once, a CRC32 per line.
JOURNAL_VERSION = 2

#: Every line ends with this key and the CRC32 of the record before it.
_CRC_MARK = b',"crc":'


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars leaking into payloads (e.g. latencies)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


#: Shared by every record: ``json.dumps`` with non-default arguments
#: builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_default)


def encode_record(record: Dict[str, Any]) -> str:
    """One journal line: *record*'s JSON with its CRC32 appended.

    The checksum covers the compact JSON of the record without the
    ``crc`` key, i.e. the line up to :data:`_CRC_MARK` plus the closing
    brace, so a reader verifies it before parsing.
    """
    body = _ENCODER.encode(record)
    return f'{body[:-1]},"crc":{zlib.crc32(body.encode("ascii"))}}}\n'


def _decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """The record one line carries, or ``None`` if its CRC32 fails."""
    head, mark, tail = line.rpartition(_CRC_MARK)
    if not mark or not tail.endswith(b"}"):
        return None
    body = head + b"}"
    try:
        if int(tail[:-1]) != zlib.crc32(body):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    if (
        not isinstance(record, dict)
        or not isinstance(record.get("record"), str)
        or not isinstance(record.get("payload"), dict)
    ):
        return None
    return record


class SchedulerJournal:
    """Append-only JSONL write-ahead journal for one scheduler run.

    Args:
        path: journal file; :meth:`create` truncates, :meth:`resume`
            appends (recovery continues the same file).
        snapshot_interval: live-state snapshot every N ticks (>= 1;
            default 5).  Larger intervals write less but replay more
            ticks on recovery; recovery is exact either way.  Use 1 for
            a snapshot at every tick boundary.
        fsync: fsync after every record — durable against power loss, at
            a heavy simulation-throughput cost (default: flush only).
    """

    def __init__(
        self,
        path: Union[str, Path],
        snapshot_interval: int = 5,
        fsync: bool = False,
        _append: bool = False,
    ) -> None:
        if snapshot_interval < 1:
            raise InvalidParameterError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        self.path = Path(path)
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self._handle = open(self.path, "a" if _append else "w", encoding="utf-8")
        self._seq = 0
        self._header_written = _append
        self._closed = False

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        snapshot_interval: int = 5,
        fsync: bool = False,
    ) -> "SchedulerJournal":
        """Start a fresh journal (truncating any existing file)."""
        return cls(path, snapshot_interval=snapshot_interval, fsync=fsync)

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        *,
        fsync: bool = False,
        contents: Optional["JournalContents"] = None,
    ) -> "SchedulerJournal":
        """Continue an existing journal after recovery.

        The file is first cut back to the end of its last intact
        snapshot: that drops a torn tail, which would otherwise make the
        next record unreadable, and the records the replay is about to
        write again.  ``seq`` continues from that snapshot's, and the
        header's snapshot interval is kept.

        Args:
            contents: the file's :func:`read_journal` view, when the
                caller already parsed it (read here otherwise).
        """
        if contents is None:
            contents = read_journal(path)
        os.truncate(path, contents.resume_offset)
        journal = cls(
            path,
            snapshot_interval=int(contents.header.get("snapshot_interval", 1)),
            fsync=fsync,
            _append=True,
        )
        journal._seq = contents.resume_seq
        return journal

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def begin(self, scheduler: MaxScheduler) -> None:
        """Write the header + initial snapshot (no-op on a resumed journal)."""
        if self._header_written:
            return
        self._header_written = True
        self._write("header", self._header_payload(scheduler))
        self.write_snapshot(scheduler)

    def record(self, record_type: str, payload: Dict[str, Any]) -> None:
        """Append one write-ahead record."""
        self._write(record_type, payload)

    def record_result(
        self, ordinal: int, result: QueryResult, now: float
    ) -> None:
        """Append the ``finalize``/``shed`` record that holds *result*.

        This is the only place a finished result is written; recovery
        rebuilds the results list from these records by *ordinal*.
        """
        payload = {"ordinal": ordinal, **_result_to_dict(result), "now": now}
        self.record(
            "shed" if result.state is QueryState.SHED else "finalize", payload
        )

    def maybe_snapshot(self, scheduler: MaxScheduler) -> None:
        """Snapshot if the tick counter crossed the snapshot interval."""
        if scheduler.ticks % self.snapshot_interval == 0:
            self.write_snapshot(scheduler)

    def write_snapshot(self, scheduler: MaxScheduler) -> None:
        """Serialize the scheduler's live state into the journal."""
        payload = snapshot_scheduler(scheduler)
        self._write("snapshot", payload, flush=True)
        get_registry().counter("service.checkpoints").inc()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                CheckpointWritten(
                    tick=payload["ticks"],
                    n_active=len(payload["active"]),
                    n_waiting=len(payload["waiting"]),
                    n_results=payload["n_results"],
                ),
                sim_time=payload["now"],
            )

    def complete(self, scheduler: MaxScheduler) -> None:
        """Mark the run drained: final snapshot + completion record."""
        self.write_snapshot(scheduler)
        self._write(
            "complete",
            {"ticks": scheduler.ticks, "makespan": scheduler.now},
            flush=True,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _header_payload(self, scheduler: MaxScheduler) -> Dict[str, Any]:
        return {
            "version": JOURNAL_VERSION,
            "kind": "scheduler_journal",
            "seed": scheduler.seed,
            "snapshot_interval": self.snapshot_interval,
            "specs": [_spec_to_dict(s) for s in scheduler._specs],
            "latency": latency_to_dict(scheduler.latency),
            "config": dataclasses.asdict(scheduler.config),
            "fault_profile": (
                dataclasses.asdict(scheduler._fault_profile)
                if scheduler._fault_profile is not None
                else None
            ),
            "retry_policy": (
                dataclasses.asdict(scheduler._retry_policy)
                if scheduler._retry_policy is not None
                else None
            ),
            "error_model": error_model_to_dict(scheduler._error_model),
            "worker_config": worker_config_to_dict(scheduler._worker_config),
            "breaker_config": (
                dataclasses.asdict(scheduler._breaker_config)
                if scheduler._breaker_config is not None
                else None
            ),
            "backends": (
                [backend_spec_to_dict(s) for s in scheduler._backend_specs]
                if scheduler._backend_specs is not None
                else None
            ),
        }

    def _write(
        self, record_type: str, payload: Dict[str, Any], flush: bool = False
    ) -> None:
        # Delta records are buffered: recovery resumes from the newest
        # intact *snapshot* and re-derives lost ticks deterministically,
        # so the snapshot is the durability boundary.  Flushing (and
        # optionally fsyncing) only there keeps the per-record overhead
        # off the hot path without weakening the recovery guarantee.
        if self._closed:
            raise InvalidParameterError(
                f"journal {self.path} is closed; no further records accepted"
            )
        self._handle.write(
            encode_record(
                {"record": record_type, "seq": self._seq, "payload": payload}
            )
        )
        if flush:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        self._seq += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "SchedulerJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Snapshot / restore of the live scheduler state
# ----------------------------------------------------------------------

#: Plan keys and cached allocations are immutable once created, yet every
#: snapshot carries the whole plan cache.  Memoizing their payloads keeps
#: the dict-building cost of a snapshot proportional to the entries that
#: changed since the last one.  Weak keys: the memo never extends an
#: object's lifetime.  Entries must be treated as frozen — the same dict
#: is embedded in every later snapshot.
_frozen_payloads: "weakref.WeakKeyDictionary[Any, Dict[str, Any]]" = (
    weakref.WeakKeyDictionary()
)


def _memoized_payload(
    obj: Any, build: Callable[[Any], Dict[str, Any]]
) -> Dict[str, Any]:
    try:
        return _frozen_payloads[obj]
    except (KeyError, TypeError):  # TypeError: unhashable/unweakrefable
        payload = build(obj)
        try:
            _frozen_payloads[obj] = payload
        except TypeError:
            pass
        return payload


def snapshot_scheduler(scheduler: MaxScheduler) -> Dict[str, Any]:
    """Serialize the scheduler's live state.

    The immutable construction arguments (specs, latency, config, seed)
    live in the journal header; this captures what evolves: the clock and
    counters, the waiting and active queues, every session (mid-round
    included), plan-cache contents, the router/brownout/SLO state and,
    per fleet backend, the RNG bit-generator states of its platform, RWL
    and fault streams, its platform/fault statistics and its circuit
    breaker.  What only grows is counted, not copied: the backlog is the
    header's arrival order from ``backlog_start`` on, the results are the
    first ``n_results`` ``finalize``/``shed`` records and the flight ring
    holds the last ``capacity`` of its ``n`` entries, each a ``tick`` or
    ``alert`` record.
    """
    return {
        "now": float(scheduler._now),
        "ticks": scheduler._ticks,
        "shared_rounds": scheduler._shared_rounds,
        "questions_posted": scheduler._questions_posted,
        "next_seq": scheduler._next_seq,
        "backlog_start": len(scheduler._arrivals) - len(scheduler._backlog),
        "waiting": [_waiting_query_payload(q) for q in scheduler._waiting],
        "active": [_active_query_to_dict(q) for q in scheduler._active],
        "n_results": len(scheduler._results),
        "plan_cache": {
            "entries": [
                [
                    _memoized_payload(key, dataclasses.asdict),
                    _memoized_payload(allocation, allocation_to_dict),
                ]
                for key, allocation in scheduler.plan_cache.items()
            ],
            "stats": dataclasses.asdict(scheduler.plan_cache.stats),
        },
        "router": (
            scheduler.router.state_dict()
            if scheduler.router.hedge is not None
            else None
        ),
        "brownout": (
            scheduler._brownout.state_dict()
            if scheduler._brownout is not None
            else None
        ),
        "slo": (
            scheduler._slo.state_dict()
            if scheduler._slo is not None
            else None
        ),
        "flight": (
            scheduler._flight.state_dict()
            if scheduler._flight is not None
            else None
        ),
        "backends": [
            backend.state_dict() for backend in scheduler.router.backends
        ],
    }


def restore_scheduler_state(
    scheduler: MaxScheduler,
    snapshot: Dict[str, Any],
    results: Sequence[QueryResult],
    ring: Sequence[Dict[str, Any]],
) -> None:
    """Overwrite *scheduler*'s mutable state with a snapshot's.

    The scheduler must have been constructed from the matching journal
    header (same seed/specs/config), so its immutable pieces — ground
    truth, element offsets, policy, allocator — are already identical.
    *results* and *ring* are the snapshot's finished results and flight
    ring entries as :func:`fold_finished_state` rebuilds them.

    Raises:
        JournalCorruptError: when the snapshot's backend states do not
            match the configured fleet, or its backlog start or result
            count do not fit.  This is checked before any state is
            restored.
    """
    backends_payload = snapshot.get("backends")
    fleet = scheduler.router.backends
    if not isinstance(backends_payload, list) or len(backends_payload) != len(
        fleet
    ):
        raise JournalCorruptError(
            "snapshot backend states do not match the configured fleet"
        )
    backlog_start = int(snapshot["backlog_start"])
    if not 0 <= backlog_start <= len(scheduler._arrivals):
        raise JournalCorruptError(
            f"snapshot backlog start {backlog_start} is outside the "
            f"{len(scheduler._arrivals)} specs"
        )
    if len(results) != snapshot["n_results"]:
        raise JournalCorruptError(
            f"snapshot holds {snapshot['n_results']} finished results, "
            f"{len(results)} were given"
        )
    for backend, backend_payload in zip(fleet, backends_payload):
        backend.load_state_dict(backend_payload)

    scheduler._now = float(snapshot["now"])
    scheduler._ticks = int(snapshot["ticks"])
    scheduler._shared_rounds = int(snapshot["shared_rounds"])
    scheduler._questions_posted = int(snapshot["questions_posted"])
    scheduler._next_seq = int(snapshot["next_seq"])
    scheduler._backlog = list(scheduler._arrivals[backlog_start:])
    scheduler._waiting = [_active_query_from_dict(d) for d in snapshot["waiting"]]
    scheduler._active = [_active_query_from_dict(d) for d in snapshot["active"]]
    scheduler.restore_results(results)

    cache = snapshot["plan_cache"]
    scheduler.plan_cache.clear()
    for key_payload, allocation_payload in cache["entries"]:
        scheduler.plan_cache.put(
            PlanKey(**key_payload), allocation_from_dict(allocation_payload)
        )
    # After the puts, so re-inserting does not perturb the counters.
    scheduler.plan_cache.stats = PlanCacheStats(**cache["stats"])

    if snapshot["router"] is not None:
        scheduler.router.load_state_dict(snapshot["router"])
    if scheduler._brownout is not None:
        scheduler._brownout.load_state_dict(snapshot["brownout"])
        # Effects (repetition, hedging suspension) are a pure function of
        # the restored level; re-derive them so the replay matches.
        scheduler._apply_brownout_effects()
    if scheduler._slo is not None:
        scheduler._slo.load_state_dict(snapshot["slo"])
    if scheduler._flight is not None:
        scheduler._flight.load_state_dict(snapshot["flight"], ring)


def _spec_to_dict(spec: QuerySpec) -> Dict[str, Any]:
    return {
        "query_id": spec.query_id,
        "n_elements": spec.n_elements,
        "budget": spec.budget,
        "priority": spec.priority,
        "latency_slo": spec.latency_slo,
        "arrival_time": float(spec.arrival_time),
        "deadline": spec.deadline,
    }


def _spec_from_dict(payload: Dict[str, Any]) -> QuerySpec:
    deadline = payload["deadline"]
    return QuerySpec(
        query_id=int(payload["query_id"]),
        n_elements=int(payload["n_elements"]),
        budget=int(payload["budget"]),
        priority=int(payload["priority"]),
        latency_slo=(
            float(payload["latency_slo"])
            if payload["latency_slo"] is not None
            else None
        ),
        arrival_time=float(payload["arrival_time"]),
        deadline=float(deadline) if deadline is not None else None,
    )


def _waiting_query_payload(query: ActiveQuery) -> Dict[str, Any]:
    """Serialize a *waiting* query, reusing the payload across snapshots.

    A waiting query is frozen from admission to promotion: its session
    (allocation, empty evidence, per-query RNG) is created in ``_admit``
    and first touched only after the query's state flips to ``RUNNING``
    and it joins a shared round.  Re-serializing it every snapshot is
    therefore pure waste — under deep admission queues the waiting list
    dominates snapshot cost.  The cache rides on the query object itself
    so it dies with it, and the ``QUEUED`` check makes staleness
    impossible: any promoted query is rebuilt fresh.
    """
    if query.state is not QueryState.QUEUED:
        return _active_query_to_dict(query)
    cached = query.__dict__.get("_waiting_payload")
    if cached is None:
        cached = _active_query_to_dict(query)
        query.__dict__["_waiting_payload"] = cached
    return cached


def _active_query_to_dict(query: ActiveQuery) -> Dict[str, Any]:
    return {
        "spec": _spec_to_dict(query.spec),
        "seq": query.seq,
        "offset": query.offset,
        "session": session_to_dict(query.session, allow_pending=True),
        "plan_cache_hit": query.plan_cache_hit,
        "state": query.state.value,
        "admitted_time": float(query.admitted_time),
        "first_scheduled_time": (
            float(query.first_scheduled_time)
            if query.first_scheduled_time is not None
            else None
        ),
        # Insertion order is iteration order, which the round packer
        # depends on — keep both dicts as ordered pair lists.
        "outstanding": [
            [list(global_q), list(local_q)]
            for global_q, local_q in query.outstanding.items()
        ],
        "collected": [
            [answer.winner, answer.loser]
            for answer in query.collected.values()
        ],
        "times_scheduled": query.times_scheduled,
        "round_attempts": query.round_attempts,
        "questions_posted": query.questions_posted,
        "deadline_at": (
            float(query.deadline_at) if query.deadline_at is not None else None
        ),
    }


def _active_query_from_dict(payload: Dict[str, Any]) -> ActiveQuery:
    query = ActiveQuery(
        spec=_spec_from_dict(payload["spec"]),
        seq=int(payload["seq"]),
        offset=int(payload["offset"]),
        session=session_from_dict(payload["session"]),
        plan_cache_hit=bool(payload["plan_cache_hit"]),
        state=QueryState(payload["state"]),
        admitted_time=float(payload["admitted_time"]),
        first_scheduled_time=(
            float(payload["first_scheduled_time"])
            if payload["first_scheduled_time"] is not None
            else None
        ),
        times_scheduled=int(payload["times_scheduled"]),
        round_attempts=int(payload["round_attempts"]),
        questions_posted=int(payload["questions_posted"]),
        deadline_at=(
            float(payload["deadline_at"])
            if payload["deadline_at"] is not None
            else None
        ),
    )
    query.outstanding = {
        (int(g[0]), int(g[1])): (int(local[0]), int(local[1]))
        for g, local in payload["outstanding"]
    }
    for winner, loser in payload["collected"]:
        answer = Answer(winner=int(winner), loser=int(loser))
        query.collected[answer.question] = answer
    return query


def _result_to_dict(result: QueryResult) -> Dict[str, Any]:
    # The spec is in the header; the query id names it.
    return {
        "query_id": result.spec.query_id,
        "state": result.state.value,
        "winner": result.winner,
        "correct": result.correct,
        "singleton": result.singleton,
        "latency": float(result.latency),
        "queue_wait": float(result.queue_wait),
        "rounds": result.rounds,
        "questions_posted": result.questions_posted,
        "plan_cache_hit": result.plan_cache_hit,
        "slo_met": result.slo_met,
        "shed_reason": result.shed_reason,
        "deadline": result.deadline,
        "deadline_outcome": result.deadline_outcome,
    }


def _result_from_dict(payload: Dict[str, Any], spec: QuerySpec) -> QueryResult:
    return QueryResult(
        spec=spec,
        state=QueryState(payload["state"]),
        winner=(
            int(payload["winner"]) if payload["winner"] is not None else None
        ),
        correct=payload["correct"],
        singleton=bool(payload["singleton"]),
        latency=float(payload["latency"]),
        queue_wait=float(payload["queue_wait"]),
        rounds=int(payload["rounds"]),
        questions_posted=int(payload["questions_posted"]),
        plan_cache_hit=bool(payload["plan_cache_hit"]),
        slo_met=payload["slo_met"],
        shed_reason=payload["shed_reason"],
        deadline=(
            float(payload["deadline"])
            if payload["deadline"] is not None
            else None
        ),
        deadline_outcome=payload["deadline_outcome"],
    )


def _generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise JournalCorruptError(
            "snapshot RNG state is not a bit-generator state dict"
        )
    bit_generator_cls = getattr(np.random, str(state["bit_generator"]), None)
    if bit_generator_cls is None:
        raise JournalCorruptError(
            f"unknown bit generator {state['bit_generator']!r} in snapshot"
        )
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ----------------------------------------------------------------------
# Reading journals back
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JournalContents:
    """Parsed view of a journal file.

    Attributes:
        header: the header record's payload.
        records: every parsed record (header included, torn tail
            excluded), in file order.
        offsets: the byte offset of each record's line.
        last_snapshot: payload of the newest intact snapshot.
        results: the finished results as of that snapshot, in the order
            they finished.
        ring: the flight ring's entries as of that snapshot, oldest
            first (empty without an SLO config).
        resume_offset: the byte offset just past that snapshot's line,
            where a resumed journal continues.
        resume_seq: the ``seq`` a resumed journal's first record takes.
        tail_corrupt: whether a torn tail was discarded.
    """

    header: Dict[str, Any]
    records: Tuple[Dict[str, Any], ...]
    offsets: Tuple[int, ...]
    last_snapshot: Dict[str, Any]
    results: Tuple[QueryResult, ...]
    ring: Tuple[Dict[str, Any], ...]
    resume_offset: int
    resume_seq: int
    tail_corrupt: bool


def read_journal(path: Union[str, Path]) -> JournalContents:
    """Parse a journal, tolerating a torn last line.

    Every line's CRC32 is checked.  A bad or unterminated last line is
    the record a dying process was writing: it is dropped.  Anywhere
    else a bad line is corruption.  The finished results and flight ring
    are folded back from the records before the newest intact snapshot
    (:func:`fold_finished_state`).

    Raises:
        JournalCorruptError: missing/empty file, a bad line before the
            last, unparseable or wrong-version header, no intact
            snapshot to recover from, or a results/ring gap.  Messages
            name the byte offset.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise JournalCorruptError(f"no such journal: {path}") from None
    if not data:
        raise JournalCorruptError(f"journal {path} is empty (byte offset 0)")
    records: List[Dict[str, Any]] = []
    offsets: List[int] = []
    tail_corrupt = False
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        # A line without its newline never finished being written, even
        # when what did reach the disk checks out.
        record = _decode_line(data[start:end]) if end != -1 else None
        if record is None:
            if end != -1 and end + 1 < len(data):
                raise JournalCorruptError(
                    f"journal {path}: the record at byte offset {start} "
                    "fails its CRC32 check"
                )
            tail_corrupt = True
            logger.warning(
                "journal %s has a torn tail at byte offset %d: dropping it",
                path,
                start,
            )
            break
        records.append(record)
        offsets.append(start)
        start = end + 1

    if not records or records[0]["record"] != "header":
        raise JournalCorruptError(
            f"journal {path} has no parseable header record at byte offset 0"
        )
    header = records[0]["payload"]
    if header.get("kind") != "scheduler_journal":
        raise JournalCorruptError(
            f"journal {path} header at byte offset 0 is not a "
            "scheduler_journal payload"
        )
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalCorruptError(
            f"journal {path} has version {version!r} (header at byte offset "
            f"0); this build reads version {JOURNAL_VERSION}"
        )
    index = max(
        (i for i, record in enumerate(records) if record["record"] == "snapshot"),
        default=None,
    )
    if index is None:
        raise JournalCorruptError(
            f"journal {path} contains no intact snapshot to recover from "
            f"(intact records end at byte offset {start})"
        )
    results, ring = _fold(header, records, offsets, index)
    return JournalContents(
        header=header,
        records=tuple(records),
        offsets=tuple(offsets),
        last_snapshot=records[index]["payload"],
        results=tuple(results),
        ring=tuple(ring),
        resume_offset=(
            offsets[index + 1] if index + 1 < len(offsets) else start
        ),
        resume_seq=int(records[index]["seq"]) + 1,
        tail_corrupt=tail_corrupt,
    )


def fold_finished_state(
    contents: JournalContents, index: int
) -> Tuple[List[QueryResult], List[Dict[str, Any]]]:
    """The finished results and flight ring as of the snapshot at *index*.

    *index* points into ``contents.records``.  The results come from the
    ``finalize``/``shed`` records before it, in ordinal order; the ring
    from its ``tick`` and ``alert`` records, each tick followed by the
    alerts it raised (the journal writes those first).

    Raises:
        JournalCorruptError: an ordinal out of sequence, or fewer or more
            results or ring entries than the snapshot counts.
    """
    return _fold(contents.header, contents.records, contents.offsets, index)


def _fold(
    header: Dict[str, Any],
    records: Sequence[Dict[str, Any]],
    offsets: Sequence[int],
    index: int,
) -> Tuple[List[QueryResult], List[Dict[str, Any]]]:
    snapshot = records[index]["payload"]
    where = f"the snapshot at byte offset {offsets[index]}"
    try:
        spec_payloads = {d["query_id"]: d for d in header["specs"]}
        flight = snapshot["flight"]
        ring: Optional[Deque[Dict[str, Any]]] = None
        if flight is not None:
            ring = deque(maxlen=int(flight["capacity"]))
            n_ring = int(flight["n"])
        n_results = int(snapshot["n_results"])
    except (KeyError, TypeError, ValueError) as error:
        raise JournalCorruptError(f"{where} is malformed: {error!r}") from None
    results: List[QueryResult] = []
    alerts: List[Dict[str, Any]] = []
    n_entries = 0
    for position in range(1, index):
        kind = records[position]["record"]
        payload = records[position]["payload"]
        try:
            if kind == "finalize" or kind == "shed":
                if payload["ordinal"] != len(results):
                    raise JournalCorruptError(
                        f"the result at byte offset {offsets[position]} has "
                        f"ordinal {payload['ordinal']}, expected {len(results)}"
                    )
                spec = _spec_from_dict(spec_payloads[payload["query_id"]])
                results.append(_result_from_dict(payload, spec))
            elif ring is not None and kind == "alert":
                alert = {"kind": "alert", **payload}
                del alert["now"]
                alerts.append(alert)
            elif ring is not None and kind == "tick":
                ring.append({"kind": "tick", **payload})
                ring.extend(alerts)
                n_entries += 1 + len(alerts)
                alerts.clear()
        except (KeyError, TypeError, ValueError) as error:
            raise JournalCorruptError(
                f"the record at byte offset {offsets[position]} is "
                f"malformed: {error!r}"
            ) from None
    if len(results) != n_results:
        raise JournalCorruptError(
            f"{where} counts {n_results} finished results; the records "
            f"before it hold {len(results)}"
        )
    if ring is None:
        return results, []
    if alerts or n_entries != n_ring:
        raise JournalCorruptError(
            f"{where} counts {n_ring} flight ring entries; the records "
            f"before it hold {n_entries + len(alerts)}"
        )
    return results, list(ring)


def service_config_from_dict(payload: Dict[str, Any]) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its journal-header form.

    ``dataclasses.asdict`` flattens the nested ``hedge``/``brownout``/
    ``slo`` configs into plain dicts; this turns them back.
    """
    data = dict(payload)
    hedge = data.get("hedge")
    if isinstance(hedge, dict):
        data["hedge"] = HedgeConfig(**hedge)
    brownout = data.get("brownout")
    if isinstance(brownout, dict):
        data["brownout"] = BrownoutConfig(**brownout)
    slo = data.get("slo")
    if isinstance(slo, dict):
        data["slo"] = slo_config_from_dict(slo)
    return ServiceConfig(**data)


def scheduler_from_header(header: Dict[str, Any]) -> MaxScheduler:
    """Reconstruct a pristine scheduler from a journal header.

    The constructor re-derives everything seeded — ground truth, element
    offsets, RNG streams — identically to the original run.
    """
    try:
        specs = [_spec_from_dict(d) for d in header["specs"]]
        latency = latency_from_dict(header["latency"])
        config = service_config_from_dict(header["config"])
        fault_payload = header["fault_profile"]
        fault_profile = (
            FaultProfile(**fault_payload) if fault_payload is not None else None
        )
        retry_payload = header["retry_policy"]
        retry_policy = (
            RetryPolicy(**retry_payload) if retry_payload is not None else None
        )
        error_model = error_model_from_dict(header["error_model"])
        worker_config = worker_config_from_dict(header["worker_config"])
        breaker_payload = header["breaker_config"]
        breaker_config = (
            CircuitBreakerConfig(**breaker_payload)
            if breaker_payload is not None
            else None
        )
        backends_payload = header.get("backends")
        backends = (
            [backend_spec_from_dict(d) for d in backends_payload]
            if backends_payload is not None
            else None
        )
        seed = header["seed"]
    except (KeyError, TypeError) as error:
        raise JournalCorruptError(
            f"journal header is missing or malformed: {error}"
        ) from None
    return MaxScheduler(
        specs,
        latency,
        seed=seed,
        config=config,
        fault_profile=fault_profile,
        retry_policy=retry_policy,
        error_model=error_model,
        worker_config=worker_config,
        breaker_config=breaker_config,
        backends=backends,
    )


def recover_scheduler(
    journal_path: Union[str, Path],
    *,
    resume_journal: bool = True,
    fsync: bool = False,
) -> MaxScheduler:
    """Rebuild a crashed scheduler from its write-ahead journal.

    Restores the newest intact snapshot and relies on determinism for the
    rest: ticks lost after that snapshot re-execute identically when the
    caller drives the returned scheduler (``scheduler.run()`` completes
    the workload with a report bit-identical to an uninterrupted run).

    Args:
        journal_path: the journal the crashed run was writing.
        resume_journal: keep journaling into the same file (default),
            cut back to the end of the restored snapshot, so the
            recovered run is itself recoverable.
        fsync: fsync policy for the resumed journal.

    Raises:
        JournalCorruptError: when the journal is missing, empty, or
            corrupt before its last line (see :func:`read_journal`).
    """
    contents = read_journal(journal_path)
    scheduler = scheduler_from_header(contents.header)
    restore_scheduler_state(
        scheduler, contents.last_snapshot, contents.results, contents.ring
    )
    get_registry().counter("service.recoveries").inc()
    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            RecoveryCompleted(
                snapshot_tick=int(contents.last_snapshot["ticks"]),
                records_read=len(contents.records),
                tail_corrupt=contents.tail_corrupt,
            ),
            sim_time=scheduler.now,
        )
    logger.info(
        "recovered scheduler from %s at tick %d (%d records%s)",
        journal_path,
        scheduler.ticks,
        len(contents.records),
        ", corrupt tail dropped" if contents.tail_corrupt else "",
    )
    if resume_journal:
        journal = SchedulerJournal.resume(
            journal_path, fsync=fsync, contents=contents
        )
        scheduler.attach_journal(journal)
    return scheduler
