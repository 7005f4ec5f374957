"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`SpanRecorder` keeps every span in memory (name, start, end,
parent, op id) in flat arrays and aggregates count, total and self time
per span name as spans close.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded and
nested, so children never overlap.

:func:`install` wraps the public entry points of each layer at class (or
module) level and returns an undo function; nothing under ``src/`` is
edited.  Python's garbage collector is timed through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.tdp import TDPAllocator
from repro.crowd.faults import FaultyPlatform
from repro.crowd.multibackend.router import CapacityAwareRouter
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine import adversarial
from repro.engine.session import MaxSession
from repro.errors import PlatformOutageError
from repro.graphs.answer_graph import AnswerGraph
from repro.obs.slo import SLOEngine
from repro.service import journal as journal_module
from repro.service.deadline import BrownoutController
from repro.service.plan_cache import PlanCache
from repro.service.scheduler import MaxScheduler


class SpanRecorder:
    """In-memory span table plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: The op id stamped on new spans (step number or request index).
        self.op_id = -1
        self._stack: List[int] = []
        self._child: List[float] = []
        #: name -> [count, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> every duration, for names whose percentiles are reported
        self.durations: Dict[str, List[float]] = {}
        #: Named event counters recorded at the same boundaries.
        self.counts: Dict[str, int] = {}
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        return self._ids[name]

    def keep_durations(self, name: str) -> None:
        self.durations.setdefault(name, [])

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.end[index] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - self.start[index]
        if self._child:
            self._child[-1] += duration
        name = self.names[self.name[index]]
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- garbage collector ---------------------------------------------
    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- queries -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def save(self, path: Path) -> None:
        """Write the span table (one row per span) as a NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Hook = Callable[[SpanRecorder, Tuple[Any, ...], Any], None]


def _wrap(
    recorder: SpanRecorder,
    fn: Callable[..., Any],
    name: str,
    after: Optional[Hook] = None,
    on_error: Optional[Callable[[SpanRecorder, BaseException], None]] = None,
) -> Callable[..., Any]:
    name_id = recorder.name_id(name)
    open_, close = recorder.open, recorder.close

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            close(index)
            if on_error is not None:
                on_error(recorder, error)
            raise
        close(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _after_faults(recorder: SpanRecorder, args, result) -> None:
    recorder.count("platform.copies", len(args[1]))
    recorder.count("platform.answers", len(result.worker_answers))


def _after_platform(recorder: SpanRecorder, args, result) -> None:
    # Copies and answers are counted where the RWL sees them: at the fault
    # layer when there is one, else at the simulated platform.
    if recorder.current() != "faults.post_batch":
        _after_faults(recorder, args, result)


def _on_fault_error(recorder: SpanRecorder, error: BaseException) -> None:
    if isinstance(error, PlatformOutageError):
        recorder.count("faults.outages")


def _after_rwl(recorder: SpanRecorder, args, result) -> None:
    recorder.count("rwl.attempts", result.attempts)
    recorder.count("rwl.answered", len(result.answers))
    recorder.count("rwl.distinct", len(result.answers) + len(result.unanswered))


def _after_router(recorder: SpanRecorder, args, result) -> None:
    recorder.count("router.hedged_questions", len(result.hedged_questions))


def _after_plan_cache(recorder: SpanRecorder, args, result) -> None:
    if result is not None:
        recorder.count("plan_cache.hits")


#: (owner, attribute, span name, after hook, error hook)
_TARGETS = (
    (MaxScheduler, "step", "scheduler.step", None, None),
    (SimulatedPlatform, "post_batch", "platform.post_batch", _after_platform, None),
    (FaultyPlatform, "post_batch", "faults.post_batch", _after_faults, _on_fault_error),
    (ReliableWorkerLayer, "ask", "rwl.ask", _after_rwl, None),
    (AnswerGraph, "record", "answer_graph.record", None, None),
    (MaxSession, "pending_questions", "session.select", None, None),
    (MaxSession, "submit", "session.submit", None, None),
    (CapacityAwareRouter, "post_round", "router.post_round", _after_router, None),
    (journal_module.SchedulerJournal, "record", "journal.record", None, None),
    (journal_module.SchedulerJournal, "maybe_snapshot", "journal.maybe_snapshot", None, None),
    (journal_module.SchedulerJournal, "write_snapshot", "journal.write_snapshot", None, None),
    (journal_module.SchedulerJournal, "complete", "journal.complete", None, None),
    (journal_module, "read_journal", "journal.read", None, None),
    (journal_module, "recover_scheduler", "journal.recover", None, None),
    (SLOEngine, "observe", "slo.observe", None, None),
    (BrownoutController, "observe", "brownout.observe", None, None),
    (PlanCache, "get", "plan_cache.get", _after_plan_cache, None),
    (TDPAllocator, "allocate", "tdp.allocate", None, None),
    # The adversary calls the name it imported from graphs.candidates.
    (adversarial, "max_independent_set", "maxrc.mis", None, None),
)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    recorder.keep_durations("tdp.allocate")
    recorder.keep_durations("maxrc.mis")
    undo: List[Callable[[], None]] = []
    for owner, attr, name, after, on_error in _TARGETS:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, _wrap(recorder, original, name, after, on_error))
        if own:
            undo.append(functools.partial(setattr, owner, attr, original))
        else:
            undo.append(functools.partial(delattr, owner, attr))
    gc.callbacks.append(recorder.on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(recorder.on_gc)
        for step in reversed(undo):
            step()

    return uninstall


def _p95_ms(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-95 * len(ordered) // 100))
    return ordered[rank - 1] * 1e3


def layer_metrics(recorder: SpanRecorder, episode) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over the fixed work."""
    r = recorder
    copies = r.counts.get("platform.copies", 0)
    distinct = r.counts.get("rwl.distinct", 0)
    asks = r.calls("rwl.ask")
    lookups = r.calls("plan_cache.get")
    hedged = r.counts.get("router.hedged_questions", 0)
    return {
        "scheduler.steps": r.calls("scheduler.step"),
        "scheduler.self_s": r.self_s("scheduler.step"),
        "scheduler.late_cost_ratio": episode.late_cost_ratio,
        "platform.batches": r.calls("platform.post_batch"),
        "platform.copies_posted": copies,
        "platform.self_s": r.self_s("platform.post_batch")
        + r.self_s("faults.post_batch"),
        "platform.answer_yield": (
            r.counts.get("platform.answers", 0) / copies if copies else 0.0
        ),
        "rwl.asks": asks,
        "rwl.self_s": r.self_s("rwl.ask"),
        "rwl.attempts_per_ask": (
            r.counts.get("rwl.attempts", 0) / asks if asks else 0.0
        ),
        "rwl.answered_ratio": (
            r.counts.get("rwl.answered", 0) / distinct if distinct else 0.0
        ),
        "answer_graph.records": r.calls("answer_graph.record"),
        "answer_graph.record_s": r.total_s("answer_graph.record"),
        "session.select_s": r.total_s("session.select"),
        "session.submit_s": r.total_s("session.submit"),
        "router.rounds": r.calls("router.post_round"),
        "router.self_s": r.self_s("router.post_round"),
        "router.hedges": episode.hedges,
        "router.hedge_waste_ratio": episode.hedge_waste / hedged if hedged else 0.0,
        "router.backend_outages": r.counts.get("faults.outages", 0),
        "journal.records": r.calls("journal.record"),
        "journal.snapshots": r.calls("journal.write_snapshot"),
        "journal.write_s": r.total_s("journal.record"),
        "journal.snapshot_s": r.total_s("journal.write_snapshot"),
        "journal.last_snapshot_bytes": episode.last_snapshot_bytes,
        "journal.read_s": r.total_s("journal.read"),
        "journal.replay_s": r.self_s("journal.recover"),
        "journal.bytes_per_query": episode.journal_bytes / episode.ops_done,
        "journal.recover_s": r.total_s("journal.recover"),
        "slo.observe_s": r.total_s("slo.observe"),
        "brownout.transitions": episode.brownout_transitions,
        "plan_cache.hit_ratio": (
            r.counts.get("plan_cache.hits", 0) / lookups if lookups else 0.0
        ),
        "tdp.solves": r.calls("tdp.allocate"),
        "tdp.solve_s": r.total_s("tdp.allocate"),
        "tdp.solve_p95_ms": _p95_ms(r.durations.get("tdp.allocate", [])),
        "maxrc.mis_calls": r.calls("maxrc.mis"),
        "maxrc.mis_s": r.total_s("maxrc.mis"),
        "maxrc.mis_p95_ms": _p95_ms(r.durations.get("maxrc.mis", [])),
        "python.gc_s": r.gc_s,
        "python.gc_collections": r.gc_collections,
    }


#: Per-layer metrics that count work: identical on every traced pass of
#: the same inputs, so a difference between passes is a determinism bug.
EXACT_COUNTS = (
    "scheduler.steps",
    "platform.batches",
    "platform.copies_posted",
    "rwl.asks",
    "answer_graph.records",
    "router.rounds",
    "router.hedges",
    "router.backend_outages",
    "journal.records",
    "journal.snapshots",
    "journal.last_snapshot_bytes",
    "brownout.transitions",
    "tdp.solves",
    "maxrc.mis_calls",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", ".bytes_per_query")):
        return "B"
    if name.endswith(("_ratio", "_yield", "_per_ask")):
        return "ratio"
    return "count"
