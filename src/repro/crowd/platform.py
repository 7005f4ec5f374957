"""A discrete-event simulation of a crowdsourcing platform.

This is the substitute for Amazon Mechanical Turk: a batch of pairwise
questions is "posted", simulated workers discover it, pick up questions one
at a time, and submit (possibly erroneous) answers.  The batch's latency is
the time from posting until the last answer arrives — exactly the quantity
the paper measured on MTurk to estimate ``L(q)`` (Section 6.1).

The simulation is a simple event loop over worker availability: the next
free worker takes the next unanswered question.  Workers arrive staggered
(discovery delay + arrival spread), may have a limited attention span, and
are replaced by fresh arrivals when the queue would otherwise starve.
"""

from __future__ import annotations

import heapq
import logging
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crowd.error_models import ErrorModel, PerfectWorkers
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import PlatformError
from repro.obs.events import WorkerServiced
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer, current_tracer
from repro.types import Answer, ColumnarValue, Question

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkerAnswer:
    """One submitted answer, with submission metadata.

    Attributes:
        question: the pair as it was posted.
        answer: the worker's (possibly wrong) judgement.
        submit_time: seconds after the batch was posted.
        worker_id: identifier of the submitting simulated worker.
    """

    question: Question
    answer: Answer
    submit_time: float
    worker_id: int


@dataclass(frozen=True, eq=False)
class BatchResult(ColumnarValue):
    """Outcome of posting one batch of questions, held as columns.

    One row per submitted answer; the per-answer arrays are parallel.

    Attributes:
        questions: the posted copies as an ``(n, 2)`` element array, in
            posting order (repeats included).
        copy: for every answer, the row of ``questions`` it answers.
        first_wins: for every answer, whether the worker judged the
            posted pair's first element the greater one.
        submit_time: seconds after posting each answer arrived.
        worker_id: the submitting simulated worker of each answer.
        completion_time: seconds until the last answer arrived — the
            measured round latency.
        n_workers: number of distinct workers who submitted answers.
    """

    questions: np.ndarray
    copy: np.ndarray
    first_wins: np.ndarray
    submit_time: np.ndarray
    worker_id: np.ndarray
    completion_time: float
    n_workers: int

    @classmethod
    def empty(cls, questions: np.ndarray) -> "BatchResult":
        """The result of posting *questions* when no answer came back."""
        return cls(
            questions=questions,
            copy=np.zeros(0, dtype=np.int64),
            first_wins=np.zeros(0, dtype=bool),
            submit_time=np.zeros(0),
            worker_id=np.zeros(0, dtype=np.int64),
            completion_time=0.0,
            n_workers=0,
        )

    @property
    def n_answers(self) -> int:
        return len(self.copy)

    @property
    def worker_answers(self) -> "WorkerAnswers":
        """The answers as :class:`WorkerAnswer` objects, built on access."""
        return WorkerAnswers(self)


class WorkerAnswers(Sequence):
    """Read-only sequence view of a :class:`BatchResult` 's rows."""

    __slots__ = ("_batch",)

    def __init__(self, batch: BatchResult) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch.copy)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        batch = self._batch
        a, b = batch.questions[batch.copy[index]].tolist()
        winner, loser = (a, b) if batch.first_wins[index] else (b, a)
        return WorkerAnswer(
            question=(a, b),
            answer=Answer(winner=winner, loser=loser),
            submit_time=float(batch.submit_time[index]),
            worker_id=int(batch.worker_id[index]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def as_question_array(questions: Sequence[Question]) -> np.ndarray:
    """*questions* as an ``(n, 2)`` int64 element array (no copy if it is one)."""
    return np.asarray(questions, dtype=np.int64).reshape(-1, 2)


@dataclass
class PlatformStats:
    """Cumulative usage statistics of a platform instance."""

    batches_posted: int = 0
    questions_posted: int = 0
    total_busy_time: float = field(default=0.0)


class Platform(ABC):
    """The posting interface every platform implementation provides.

    :class:`SimulatedPlatform` is the bare discrete-event implementation
    (and :class:`repro.crowd.diurnal.DiurnalPlatform` a subclass of it);
    :class:`repro.crowd.faults.FaultyPlatform` is a decorator wrapping any
    other platform.  Consumers — the Reliable Worker Layer above all —
    depend only on this interface, so decorators and new implementations
    slot in unchanged.
    """

    stats: PlatformStats

    @abstractmethod
    def post_batch(self, questions: Sequence[Question]) -> BatchResult:
        """Post *questions* as one batch and block until it resolves.

        Raises:
            PlatformError: on invalid questions.
            PlatformOutageError: when a fault-injecting implementation
                loses the whole batch.
        """

    def measure_latency(self, batch_size: int, pairs: Sequence[Question]) -> float:
        """Convenience: post a batch and return only its completion time."""
        if len(pairs) != batch_size:
            raise PlatformError(
                f"expected {batch_size} questions, got {len(pairs)}"
            )
        return self.post_batch(pairs).completion_time


class SimulatedPlatform(Platform):
    """The crowdsourcing platform substrate.

    Args:
        truth: the hidden true order workers judge against.
        error_model: per-answer error behaviour (default: perfect workers,
            matching the paper's error-free main setting).
        config: worker-pool dynamics.
        rng: randomness source.
    """

    def __init__(
        self,
        truth: GroundTruth,
        rng: np.random.Generator,
        error_model: Optional[ErrorModel] = None,
        config: Optional[WorkerPoolConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.truth = truth
        self.error_model = error_model if error_model is not None else PerfectWorkers()
        self.config = config if config is not None else WorkerPoolConfig()
        self._rng = rng
        self.stats = PlatformStats()
        self._next_worker_id = 0
        self._tracer = tracer

    def post_batch(self, questions: Sequence[Question]) -> BatchResult:
        """Post *questions* as one batch and simulate until all are answered.

        Duplicate questions are allowed (the Reliable Worker Layer posts
        repetitions for voting); each posted copy is answered independently.

        The per-copy loop draws from the platform RNG in a fixed order —
        service time, then the error-model draw, then (when the worker's
        attention span runs out) the replacement's discovery delay and
        speed — so the stream is identical however the answers are
        stored; the winners are derived from the error draws afterwards
        in one vector step.
        """
        posted = as_question_array(questions)
        n = len(posted)
        a, b = posted[:, 0], posted[:, 1]
        self_pairs = np.flatnonzero(a == b)
        if self_pairs.size:
            x = int(a[self_pairs[0]])
            raise PlatformError(f"cannot post a self-comparison ({x}, {x})")
        self.stats.batches_posted += 1
        self.stats.questions_posted += n
        if not n:
            return BatchResult.empty(posted)

        config = self.config
        rng = self._rng
        n_workers = config.attracted_workers(n)
        arrivals = config.sample_arrival_times(n_workers, rng)
        # Min-heap of (time the worker becomes free, worker id, answered so
        # far).  Initially each worker frees up at their arrival time.
        free_at: List[Tuple[float, int, int]] = []
        worker_speed = {}
        for arrival in arrivals:
            worker_id = self._new_worker_id()
            worker_speed[worker_id] = config.sample_worker_speed(rng)
            heapq.heappush(free_at, (arrival, worker_id, 0))

        # Service times are lognormal: exp(mu + sigma * z) is exactly the
        # draw rng.lognormal(mu, sigma) makes, minus its per-call overhead.
        sigma = config.service_sigma
        mu = math.log(config.mean_service_time) - sigma**2 / 2.0
        normal, uniform = rng.standard_normal, rng.random
        span = config.attention_span
        heappop, heappush = heapq.heappop, heapq.heappush
        submit_of = [0.0] * n
        worker_of = [0] * n
        service_of = [0.0] * n
        draws = [0.0] * n
        busy = self.stats.total_busy_time
        for i in range(n):
            time_free, worker_id, answered = heappop(free_at)
            base = math.exp(mu + sigma * normal()) if sigma else (
                config.mean_service_time
            )
            service = base * worker_speed[worker_id]
            submit = time_free + service
            busy += service
            draws[i] = uniform()
            submit_of[i] = submit
            worker_of[i] = worker_id
            service_of[i] = service
            answered += 1
            if span is not None and answered >= span:
                # The worker moves on; a fresh worker discovers the still-
                # open batch after a new discovery delay, keeping the queue
                # from starving.
                replacement_arrival = submit + config.sample_discovery_time(rng)
                replacement_id = self._new_worker_id()
                worker_speed[replacement_id] = config.sample_worker_speed(rng)
                heappush(free_at, (replacement_arrival, replacement_id, 0))
                logger.debug(
                    "worker %d exhausted its attention span (%d answers); "
                    "replacement %d arrives at t=%.1f s",
                    worker_id,
                    answered,
                    replacement_id,
                    replacement_arrival,
                )
            else:
                heappush(free_at, (submit, worker_id, answered))
        self.stats.total_busy_time = busy

        truth = self.truth
        wrong = np.array(draws) < self.error_model.error_probabilities(
            truth, a, b
        )
        first_wins = (truth.ranks_of(a) < truth.ranks_of(b)) != wrong
        n_serviced = len(set(worker_of))
        registry = get_registry()
        registry.counter("platform.batches_posted").inc()
        registry.counter("platform.questions_posted").inc(n)
        registry.counter("platform.workers_serviced").inc(n_serviced)
        tracer = self._tracer if self._tracer is not None else current_tracer()
        if tracer.enabled:
            # worker id -> [answers submitted, busy seconds] in this batch.
            participants: Dict[int, List[float]] = {}
            for worker_id, service in zip(worker_of, service_of):
                usage = participants.setdefault(worker_id, [0, 0.0])
                usage[0] += 1
                usage[1] += service
            for worker_id, (n_answers, busy_time) in sorted(participants.items()):
                tracer.emit(
                    WorkerServiced(
                        worker_id=worker_id,
                        n_answers=int(n_answers),
                        busy_time=busy_time,
                    )
                )
        return BatchResult(
            questions=posted,
            copy=np.arange(n),
            first_wins=first_wins,
            submit_time=np.array(submit_of),
            worker_id=np.array(worker_of, dtype=np.int64),
            completion_time=max(submit_of),
            n_workers=n_serviced,
        )

    def _new_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id
