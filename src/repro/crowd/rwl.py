"""The Reliable Worker Layer (RWL) of Section 2.1.

The paper's algorithms assume "a single comparison is sufficient for
resolving the true relation" of two elements, and delegate error handling to
an RWL sitting between the algorithms and the platform: "The input to RWL,
in each round, is a set of questions and the output is a conflict-free set
of correct answers; with one answer per question."

This implementation harnesses the two technique families the paper cites:

* **question repetition + majority voting** — each question is posted
  ``repetition`` times inside the same platform batch (so the round count is
  unchanged), and the majority answer wins;
* **cycle resolution** — if the majority answers still contain a preference
  cycle, the answers are re-oriented to agree with a local Copeland-style
  ranking (elements sorted by their weighted vote wins), which is guaranteed
  acyclic.  When the majority answers are already consistent (always true
  for perfect workers), they are returned untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.crowd.breaker import BreakerState, CircuitBreaker
from repro.crowd.faults import RetryPolicy
from repro.crowd.platform import Platform, as_question_array
from repro.errors import (
    InconsistentAnswersError,
    InvalidParameterError,
    PlatformOutageError,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.obs.events import BatchRetried, RWLRetry
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span, emit_span, span_scope
from repro.obs.tracer import Tracer, current_tracer
from repro.types import (
    AnswerColumns,
    ColumnarValue,
    Element,
    Question,
    normalize_question,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class RWLResult(ColumnarValue):
    """Output of one RWL round, held as columns over its distinct questions.

    Attributes:
        questions: the round's distinct canonical questions as a
            ``(d, 2)`` element array, in first-asked order.
        winners: the conflict-free winner of each distinct question, or
            ``-1`` where it never received an answer (faults exhausted the
            retry policy).
        index: for every asked position, its row of ``questions`` —
            ``winners[index]`` answers the questions as they were asked.
        latency: seconds the round took — all platform batches plus the
            backoff waits between retry attempts.
        questions_posted: total posted copies over all attempts
            (``distinct * repetition`` when nothing was retried).
        majority_flips: answers whose final direction disagrees with the
            majority vote (non-zero only when cycle resolution fired).
        attempts: posting attempts made (1 = no retries).
    """

    questions: np.ndarray
    winners: np.ndarray
    index: np.ndarray
    latency: float
    questions_posted: int
    majority_flips: int
    attempts: int = 1

    @classmethod
    def empty(cls) -> "RWLResult":
        """The result of asking nothing."""
        none = np.zeros(0, dtype=np.int64)
        return cls(none.reshape(0, 2), none, none, 0.0, 0, 0)

    @property
    def answers(self) -> AnswerColumns:
        """One answer per answered distinct question, in first-asked order."""
        answered = self.winners >= 0
        winners = self.winners[answered]
        pairs = self.questions[answered]
        return AnswerColumns(winners, pairs[:, 0] + pairs[:, 1] - winners)

    @property
    def unanswered(self) -> Tuple[Question, ...]:
        """Distinct questions that never received any answer."""
        return tuple(
            (a, b) for a, b in self.questions[self.winners < 0].tolist()
        )


class ReliableWorkerLayer:
    """Repetition + majority voting + cycle resolution on top of a platform.

    With a :class:`~repro.crowd.faults.RetryPolicy` the layer also absorbs
    platform faults: whenever a batch comes back with distinct questions
    unanswered (lost/abandoned answers) or is swallowed by an outage, only
    the unanswered questions are re-posted after an exponential backoff,
    until every question has an answer or the policy's attempt/deadline
    budget runs out.  Questions still unanswered at that point are
    reported in :attr:`RWLResult.unanswered` and the layer returns a
    conflict-free answer set for the questions that did resolve — the
    engines degrade gracefully on the partial answers.
    """

    def __init__(
        self,
        platform: Platform,
        rng: np.random.Generator,
        repetition: int = 1,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if repetition < 1:
            raise InvalidParameterError(f"repetition must be >= 1: {repetition}")
        self.platform = platform
        self.repetition = repetition
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._rng = rng
        self._tracer = tracer

    def ask(
        self,
        questions: Sequence[Question],
        *,
        budget: Optional[float] = None,
    ) -> RWLResult:
        """Resolve *questions* into a conflict-free answer per question.

        Args:
            questions: the round's (possibly repeated) question pairs.
            budget: optional remaining *per-query latency budget* in
                seconds.  Retry backoff sleeps are clipped to it: a sleep
                that would overshoot the budget is truncated to the exact
                remainder (the retry still happens), and once no budget
                remains the round degrades instead of sleeping on.  This
                is enforced *in addition to* the retry policy's own
                global deadline, never instead of it.

        Raises:
            PlatformOutageError: only when no retry policy is configured
                and the platform loses the whole batch; with a policy the
                outage is retried (and, past the policy's limits, degraded
                into ``unanswered`` questions).
        """
        distinct, index = _distinct_questions(as_question_array(questions))
        if not len(distinct):
            logger.debug("RWL asked to resolve an empty question set")
            return RWLResult.empty()
        asked, first_wins, total_latency, questions_posted, attempts = (
            self._post_with_retries(distinct, budget=budget)
        )
        n_distinct = len(distinct)
        votes_first = np.bincount(asked[first_wins], minlength=n_distinct)
        votes_second = np.bincount(asked[~first_wins], minlength=n_distinct)
        resolved = np.flatnonzero(votes_first + votes_second)
        winners = np.full(n_distinct, -1, dtype=np.int64)
        flips, repaired = 0, False
        if resolved.size:
            majority = self._majority(
                distinct[resolved], votes_first[resolved], votes_second[resolved]
            )
            winners[resolved], flips, repaired = self._resolve_cycles(
                distinct[resolved],
                majority,
                votes_first[resolved],
                votes_second[resolved],
            )
        unanswered = n_distinct - resolved.size
        registry = get_registry()
        registry.counter("rwl.batches").inc()
        registry.counter("rwl.distinct_questions").inc(n_distinct)
        registry.counter("rwl.questions_posted").inc(questions_posted)
        if unanswered:
            registry.counter("rwl.unanswered").inc(unanswered)
            logger.warning(
                "RWL degraded: %d of %d questions never answered after "
                "%d attempt(s)",
                unanswered,
                n_distinct,
                attempts,
            )
        if repaired:
            registry.counter("rwl.cycle_repairs").inc()
            registry.counter("rwl.majority_flips").inc(flips)
            logger.warning(
                "RWL cycle resolution fired: %d of %d majority answers "
                "re-oriented (repetition %d)",
                flips,
                n_distinct,
                self.repetition,
            )
            tracer = self._tracer if self._tracer is not None else current_tracer()
            if tracer.enabled:
                tracer.emit(
                    RWLRetry(
                        distinct_questions=n_distinct,
                        questions_posted=questions_posted,
                        repetition=self.repetition,
                        majority_flips=flips,
                    )
                )
        return RWLResult(
            questions=distinct,
            winners=winners,
            index=index,
            latency=total_latency,
            questions_posted=questions_posted,
            majority_flips=flips,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Posting + retries
    # ------------------------------------------------------------------
    def _post_with_retries(
        self,
        distinct: np.ndarray,
        *,
        budget: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, float, int, int]:
        """Post *distinct* (times repetition), retrying unanswered questions.

        Returns ``(row of distinct each raw worker answer is for, whether
        it judged the row's first element greater, round latency, posted
        copies, attempts)``.  Without a retry policy this is a single
        post — and, on a fault-free platform, byte-identical to the
        pre-fault-layer behaviour.
        """
        policy = self.retry_policy
        asked: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        first_wins: List[np.ndarray] = [np.zeros(0, dtype=bool)]
        answered = np.zeros(len(distinct), dtype=bool)
        pending = np.arange(len(distinct))
        total_latency = 0.0
        questions_posted = 0
        attempt = 0
        registry = get_registry()
        breaker = self.breaker
        tracer = self._tracer if self._tracer is not None else current_tracer()
        # When a span scope is ambient (the scheduler's tick span, or an
        # engine round span), each posting attempt becomes a child span —
        # anchored on the global simulated clock via the scope's base time
        # plus this round's local latency accumulator.
        scope = current_span() if tracer.enabled else None
        while pending.size:
            if breaker is not None and not breaker.allow_post():
                logger.info(
                    "circuit open: %d question(s) left unposted",
                    len(pending),
                )
                break
            attempt += 1
            copies = np.repeat(pending, self.repetition)
            posted = distinct[copies]
            attempt_start = total_latency
            attempt_id = (
                f"{scope.span_id}/a{attempt}" if scope is not None else None
            )
            try:
                if attempt_id is not None:
                    with span_scope(attempt_id, scope.base_time):
                        batch = self.platform.post_batch(posted)
                else:
                    batch = self.platform.post_batch(posted)
            except PlatformOutageError as outage:
                if breaker is not None:
                    breaker.record_outage()
                if policy is None:
                    raise
                total_latency += outage.wasted_seconds
                reason = "outage"
                if attempt_id is not None:
                    emit_span(
                        tracer,
                        attempt_id,
                        "attempt",
                        start=scope.base_time + attempt_start,
                        end=scope.base_time + total_latency,
                        parent_id=scope.span_id,
                        detail=f"{len(posted)} posted",
                        status="outage",
                    )
            else:
                if breaker is not None:
                    breaker.record_success()
                questions_posted += len(posted)
                total_latency += batch.completion_time
                rows = copies[batch.copy]
                asked.append(rows)
                first_wins.append(batch.first_wins)
                answered[rows] = True
                pending = pending[~answered[pending]]
                reason = "unanswered"
                if attempt_id is not None:
                    emit_span(
                        tracer,
                        attempt_id,
                        "attempt",
                        start=scope.base_time + attempt_start,
                        end=scope.base_time + total_latency,
                        parent_id=scope.span_id,
                        detail=f"{len(posted)} posted",
                    )
            if not pending.size or policy is None:
                break
            if attempt >= policy.max_attempts:
                logger.debug(
                    "retry budget exhausted: %d question(s) unanswered "
                    "after %d attempts",
                    len(pending),
                    attempt,
                )
                break
            if breaker is not None and breaker.state is BreakerState.OPEN:
                # The circuit just tripped; stop burning retry attempts
                # (and backoff latency) against a dead platform.
                logger.debug(
                    "circuit opened mid-round; abandoning retries for "
                    "%d question(s)",
                    len(pending),
                )
                break
            backoff = policy.backoff_seconds(attempt, self._rng)
            if (
                policy.deadline is not None
                and total_latency + backoff >= policy.deadline
            ):
                logger.debug(
                    "retry deadline hit: %.1f s + %.1f s backoff >= %.1f s "
                    "deadline; degrading with %d unanswered question(s)",
                    total_latency,
                    backoff,
                    policy.deadline,
                    len(pending),
                )
                break
            if budget is not None and total_latency + backoff > budget:
                # Per-query budget: truncate the sleep to the exact
                # remainder so the retry still happens at the boundary
                # tick — skipping it wholesale would waste budget that
                # could still buy an answer.
                remaining = budget - total_latency
                if remaining <= 0:
                    logger.debug(
                        "query budget exhausted: %.1f s spent of %.1f s; "
                        "degrading with %d unanswered question(s)",
                        total_latency,
                        budget,
                        len(pending),
                    )
                    break
                logger.debug(
                    "retry backoff truncated to the remaining query "
                    "budget: %.1f s -> %.1f s",
                    backoff,
                    remaining,
                )
                backoff = remaining
            total_latency += backoff
            registry.counter("rwl.retries").inc()
            logger.debug(
                "retrying %d unanswered question(s) after %.1f s backoff "
                "(attempt %d, reason: %s)",
                len(pending),
                backoff,
                attempt + 1,
                reason,
            )
            if tracer.enabled:
                tracer.emit(
                    BatchRetried(
                        attempt=attempt + 1,
                        distinct_questions=len(pending),
                        questions_reposted=len(pending) * self.repetition,
                        backoff_seconds=backoff,
                        reason=reason,
                        span_id=scope.span_id if scope is not None else "",
                    ),
                    sim_time=total_latency,
                )
        return (
            np.concatenate(asked),
            np.concatenate(first_wins),
            total_latency,
            questions_posted,
            attempt,
        )

    # ------------------------------------------------------------------
    # Voting
    # ------------------------------------------------------------------
    def _majority(
        self,
        pairs: np.ndarray,
        votes_first: np.ndarray,
        votes_second: np.ndarray,
    ) -> np.ndarray:
        """Majority winner of every answered pair; ties by a fair coin.

        Tie coins are drawn in pair order, one ``random()`` double each —
        the same stream a per-pair scalar draw consumes.
        """
        first = votes_first > votes_second
        ties = np.flatnonzero(votes_first == votes_second)
        if ties.size:
            first[ties] = self._rng.random(ties.size) < 0.5
        return np.where(first, pairs[:, 0], pairs[:, 1])

    # ------------------------------------------------------------------
    # Cycle resolution
    # ------------------------------------------------------------------
    def _resolve_cycles(
        self,
        pairs: np.ndarray,
        majority: np.ndarray,
        votes_first: np.ndarray,
        votes_second: np.ndarray,
    ) -> Tuple[np.ndarray, int, bool]:
        """Returns (winners, flips, whether cycle repair fired)."""
        losers = pairs[:, 0] + pairs[:, 1] - majority
        if wins_screen_passes(majority, losers):
            return majority, 0, False
        elements: Set[Element] = {e for pair in pairs.tolist() for e in pair}
        graph = AnswerGraph(elements)
        graph.record_pairs(zip(majority.tolist(), losers.tolist()))
        try:
            graph.validate_acyclic()
        except InconsistentAnswersError:
            winners, flips = self._rank_and_orient(
                pairs, majority, votes_first, votes_second, elements
            )
            return winners, flips, True
        return majority, 0, False

    def _rank_and_orient(
        self,
        pairs: np.ndarray,
        majority: np.ndarray,
        votes_first: np.ndarray,
        votes_second: np.ndarray,
        elements: Set[Element],
    ) -> Tuple[np.ndarray, int]:
        """Copeland-style repair: rank by weighted wins, orient every pair."""
        strength: Dict[Element, float] = {e: 0.0 for e in elements}
        for (a, b), votes_a, votes_b in zip(
            pairs.tolist(), votes_first.tolist(), votes_second.tolist()
        ):
            total = votes_a + votes_b
            strength[a] += votes_a / total
            strength[b] += votes_b / total
        # One tie-break draw per element, in the set's iteration order.
        ranking = sorted(
            elements, key=lambda e: (strength[e], self._rng.random()), reverse=True
        )
        rank = {element: position for position, element in enumerate(ranking)}
        winners = np.array(
            [a if rank[a] < rank[b] else b for a, b in pairs.tolist()],
            dtype=np.int64,
        )
        return winners, int(np.count_nonzero(winners != majority))


def _distinct_questions(asked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical distinct questions in first-asked order, plus each asked
    position's row among them.

    Raises:
        ValueError: on a self-comparison, like
            :func:`~repro.types.normalize_question`.
    """
    low, high = asked.min(axis=1), asked.max(axis=1)
    same = np.flatnonzero(low == high)
    if same.size:
        normalize_question(int(low[same[0]]), int(high[same[0]]))
    if not len(asked):
        return asked, np.zeros(0, dtype=np.int64)
    base = int(low.min())
    keys = (low - base) * (int(high.max()) - base + 1) + (high - base)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    row_of_key = np.empty_like(order)
    row_of_key[order] = np.arange(order.size)
    rows = first[order]
    return np.stack([low[rows], high[rows]], axis=1), row_of_key[inverse.ravel()]


def wins_screen_passes(winners: np.ndarray, losers: np.ndarray) -> bool:
    """O(E) sufficient test that the answers ``winners[i] > losers[i]`` are
    acyclic: every winner has strictly more wins than the loser it beat.

    Along any path of answers the win count then strictly increases, so no
    path can return to its start.  On a union of disjoint cliques (a tDP
    round, Definition 2) the converse holds too: an acyclic tournament is
    transitive, and in a transitive tournament every winner out-wins its
    loser — so there the screen passes exactly when the answers are
    acyclic.  Other graphs that fail it may still be acyclic.
    """
    elements, slots = np.unique(
        np.concatenate([winners, losers]), return_inverse=True
    )
    slots = slots.ravel()
    n = len(winners)
    wins = np.bincount(slots[:n], minlength=len(elements))
    return bool(np.all(wins[slots[:n]] > wins[slots[n:]]))
