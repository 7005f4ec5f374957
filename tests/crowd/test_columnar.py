"""Differential and property tests of the columnar answer path.

The platform, the fault layer and the Reliable Worker Layer hold a round
as arrays and draw vectors of random numbers where the order allows it.
Each test here replays the same seeds through a scalar, one-object-per-
answer reference implementation kept in this file and demands identical
answers *and* identical RNG state afterwards.
"""

import dataclasses
import heapq
import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.error_models import (
    DistanceSensitiveError,
    PerfectWorkers,
    UniformError,
)
from repro.crowd.faults import FaultProfile, FaultyPlatform
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform, WorkerAnswer
from repro.crowd.rwl import ReliableWorkerLayer, wins_screen_passes
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InconsistentAnswersError, PlatformOutageError
from repro.graphs.answer_graph import AnswerGraph
from repro.types import Answer, normalize_question

SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def clique_rounds(draw, max_cliques=5, max_size=6):
    """A tDP-style round: all pairs inside disjoint cliques, each pair in a
    random orientation, over consecutive element ids."""
    sizes = draw(
        st.lists(st.integers(1, max_size), min_size=1, max_size=max_cliques)
    )
    questions = []
    start = 0
    for size in sizes:
        members = range(start, start + size)
        for a, b in itertools.combinations(members, 2):
            questions.append((a, b) if draw(st.booleans()) else (b, a))
        start += size
    return start, questions


def _acyclic(elements, winners, losers):
    graph = AnswerGraph(elements)
    for winner, loser in zip(winners, losers):
        graph.record(Answer(winner=winner, loser=loser))
    try:
        graph.validate_acyclic()
    except InconsistentAnswersError:
        return False
    return True


# ----------------------------------------------------------------------
# Win-count screen
# ----------------------------------------------------------------------
@SETTINGS
@given(
    n=st.integers(2, 9),
    data=st.data(),
)
def test_screen_pass_implies_acyclic(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, unique=True)
    )
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                               max_size=len(chosen)))
    winners = [b if flip else a for (a, b), flip in zip(chosen, flips)]
    losers = [a if flip else b for (a, b), flip in zip(chosen, flips)]
    if wins_screen_passes(np.array(winners), np.array(losers)):
        assert _acyclic(range(n), winners, losers)


@SETTINGS
@given(clique_rounds())
def test_screen_is_exact_on_disjoint_cliques(round_):
    n, questions = round_
    if not questions:
        return
    winners = [a for a, _ in questions]
    losers = [b for _, b in questions]
    assert wins_screen_passes(np.array(winners), np.array(losers)) == (
        _acyclic(range(n), winners, losers)
    )


# ----------------------------------------------------------------------
# Scalar reference of the RWL's voting and cycle repair
# ----------------------------------------------------------------------
def _tally(batch_answers):
    votes = defaultdict(lambda: defaultdict(int))
    for answer in batch_answers:
        votes[answer.question][answer.winner] += 1
    return votes


def _majority_winner(rng, pair, pair_votes):
    a, b = pair
    votes_a, votes_b = pair_votes.get(a, 0), pair_votes.get(b, 0)
    if votes_a > votes_b:
        return a
    if votes_b > votes_a:
        return b
    return a if rng.random() < 0.5 else b


def _rank_and_orient(rng, distinct, majority, votes, elements):
    strength = {e: 0.0 for e in elements}
    for pair in distinct:
        a, b = pair
        total = votes[pair].get(a, 0) + votes[pair].get(b, 0)
        strength[a] += votes[pair].get(a, 0) / total
        strength[b] += votes[pair].get(b, 0) / total
    ranking = sorted(
        elements, key=lambda e: (strength[e], rng.random()), reverse=True
    )
    rank = {element: position for position, element in enumerate(ranking)}
    answers, flips = [], 0
    for a, b in distinct:
        winner = a if rank[a] < rank[b] else b
        if winner != majority[(a, b)]:
            flips += 1
        answers.append(Answer(winner=winner, loser=b if winner == a else a))
    return answers, flips


def _resolve_cycles(rng, distinct, majority, votes):
    elements = {e for pair in distinct for e in pair}
    graph = AnswerGraph(elements)
    answers = []
    for pair in distinct:
        winner = majority[pair]
        answer = Answer(winner=winner, loser=pair[1] if winner == pair[0] else pair[0])
        answers.append(answer)
        graph.record(answer)
    try:
        graph.validate_acyclic()
    except InconsistentAnswersError:
        return _rank_and_orient(rng, distinct, majority, votes, elements)
    return answers, 0


def _reference_ask(platform, rng, questions, repetition):
    distinct = list(dict.fromkeys(normalize_question(a, b) for a, b in questions))
    posted = [pair for pair in distinct for _ in range(repetition)]
    raw = [wa.answer for wa in platform.post_batch(posted).worker_answers]
    answered = {answer.question for answer in raw}
    resolved = [pair for pair in distinct if pair in answered]
    votes = _tally(raw)
    majority = {
        pair: _majority_winner(rng, pair, votes[pair]) for pair in resolved
    }
    return _resolve_cycles(rng, resolved, majority, votes)


def _platform(n, seed, error_model, config=None):
    truth = GroundTruth.random(n, np.random.default_rng((seed, 0)))
    return SimulatedPlatform(
        truth,
        np.random.default_rng((seed, 1)),
        error_model=error_model,
        config=config,
    )


@SETTINGS
@given(
    round_=clique_rounds(),
    repetition=st.integers(1, 4),
    rate=st.sampled_from([0.0, 0.1, 0.3, 0.45]),
    seed=st.integers(0, 2**16),
    duplicated=st.booleans(),
)
def test_columnar_vote_matches_scalar_reference(
    round_, repetition, rate, seed, duplicated
):
    n, questions = round_
    if duplicated:
        questions = questions + questions[::2]
    if not questions:
        return
    rwl = ReliableWorkerLayer(
        _platform(n, seed, UniformError(rate)),
        np.random.default_rng((seed, 2)),
        repetition=repetition,
    )
    result = rwl.ask(questions)

    reference_rng = np.random.default_rng((seed, 2))
    answers, flips = _reference_ask(
        _platform(n, seed, UniformError(rate)),
        reference_rng,
        questions,
        repetition,
    )
    assert tuple(result.answers) == tuple(answers)
    assert result.majority_flips == flips
    assert rwl._rng.bit_generator.state == reference_rng.bit_generator.state
    # Every asked position maps to its own question's answer.
    position_winners = result.winners[result.index]
    for (a, b), winner in zip(questions, position_winners.tolist()):
        assert winner in (a, b)


# ----------------------------------------------------------------------
# Scalar reference of the platform's per-copy loop
# ----------------------------------------------------------------------
def _reference_post(platform, questions):
    config, rng = platform.config, platform._rng
    n_workers = config.attracted_workers(len(questions))
    free_at, speed = [], {}
    for arrival in config.sample_arrival_times(n_workers, rng):
        worker_id = platform._new_worker_id()
        speed[worker_id] = config.sample_worker_speed(rng)
        heapq.heappush(free_at, (arrival, worker_id, 0))
    answers = []
    for question in questions:
        time_free, worker_id, answered = heapq.heappop(free_at)
        service = config.sample_service_time(rng) * speed[worker_id]
        submit = time_free + service
        platform.stats.total_busy_time += service
        answer = platform.error_model.worker_answer(
            platform.truth, question[0], question[1], rng
        )
        answers.append(WorkerAnswer(question, answer, submit, worker_id))
        answered += 1
        if config.attention_span is not None and answered >= config.attention_span:
            arrival = submit + config.sample_discovery_time(rng)
            replacement = platform._new_worker_id()
            speed[replacement] = config.sample_worker_speed(rng)
            heapq.heappush(free_at, (arrival, replacement, 0))
        else:
            heapq.heappush(free_at, (submit, worker_id, answered))
    return answers


ERROR_MODELS = [
    PerfectWorkers(),
    UniformError(0.25),
    DistanceSensitiveError(base=0.4, scale=3.0),
]


@SETTINGS
@given(
    round_=clique_rounds(),
    model=st.sampled_from(ERROR_MODELS),
    span=st.sampled_from([None, 1, 3]),
    service_sigma=st.sampled_from([0.0, 0.4]),
    speed_sigma=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_platform_matches_scalar_reference(
    round_, model, span, service_sigma, speed_sigma, seed
):
    n, questions = round_
    if not questions:
        return
    config = WorkerPoolConfig(
        attention_span=span,
        service_sigma=service_sigma,
        worker_speed_sigma=speed_sigma,
    )
    platform = _platform(n, seed, model, config)
    result = platform.post_batch(questions)
    reference = _platform(n, seed, model, config)
    expected = _reference_post(reference, questions)
    assert list(result.worker_answers) == expected
    assert result.completion_time == max(wa.submit_time for wa in expected)
    assert result.n_workers == len({wa.worker_id for wa in expected})
    assert platform.stats.total_busy_time == reference.stats.total_busy_time
    assert (
        platform._rng.bit_generator.state == reference._rng.bit_generator.state
    )


# ----------------------------------------------------------------------
# Scalar reference of the fault layer
# ----------------------------------------------------------------------
def _reference_faults(answers, profile, rng):
    def remove(answers, probability):
        if probability == 0 or not answers:
            return answers
        return [a for a in answers if rng.random() >= probability]

    answers = remove(answers, profile.abandon_prob)
    answers = remove(answers, profile.drop_prob)
    if profile.straggler_prob > 0 and answers:
        answers = [
            dataclasses.replace(
                a, submit_time=a.submit_time * profile.straggler_multiplier
            )
            if rng.random() < profile.straggler_prob
            else a
            for a in answers
        ]
    if profile.duplicate_prob > 0 and answers:
        copies = []
        for a in answers:
            if rng.random() < profile.duplicate_prob:
                copies.append(
                    dataclasses.replace(
                        a,
                        submit_time=a.submit_time
                        + rng.uniform(0.0, profile.duplicate_delay),
                    )
                )
        answers = answers + copies
    return answers


probability = st.sampled_from([0.0, 0.1, 0.5, 1.0])


@SETTINGS
@given(
    round_=clique_rounds(),
    abandon=probability,
    drop=probability,
    straggler=probability,
    duplicate=probability,
    outage=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_fault_layer_matches_scalar_reference(
    round_, abandon, drop, straggler, duplicate, outage, seed
):
    n, questions = round_
    profile = FaultProfile(
        abandon_prob=abandon,
        drop_prob=drop,
        straggler_prob=straggler,
        duplicate_prob=duplicate,
        outage_prob=outage,
    )
    faulty = FaultyPlatform(
        _platform(n, seed, UniformError(0.2)),
        profile,
        np.random.default_rng((seed, 3)),
    )
    reference_rng = np.random.default_rng((seed, 3))
    inner = _platform(n, seed, UniformError(0.2))
    for _ in range(2):  # a second batch starts from the advanced streams
        swallowed = bool(
            questions and outage > 0 and reference_rng.random() < outage
        )
        if swallowed:
            with pytest.raises(PlatformOutageError):
                faulty.post_batch(questions)
            continue
        result = faulty.post_batch(questions)
        bare = list(inner.post_batch(questions).worker_answers)
        expected = (
            bare if profile.is_zero else _reference_faults(bare, profile, reference_rng)
        )
        assert list(result.worker_answers) == expected
        assert result.completion_time == max(
            (a.submit_time for a in expected), default=0.0
        )
        assert result.n_workers == len({a.worker_id for a in expected})
    assert (
        faulty._fault_rng.bit_generator.state
        == reference_rng.bit_generator.state
    )
