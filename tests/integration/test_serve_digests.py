"""Bit-identity pins for seeded ``serve`` runs.

Each case drives a :class:`~repro.service.MaxScheduler` to completion and
hashes ``(report.results, makespan, ticks, questions_posted)`` with
SHA-256; journaled cases also hash the journal file, and traced cases the
trace stream (wall-clock ``seconds`` payloads zeroed).  The digests in
``golden/serve_digests.json`` must not move under a pure refactor or
optimisation of the platform, RWL, router or scheduler layers.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/integration/test_serve_digests.py

then say in the change description why the simulated outcome moved.
"""

import contextlib
import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.error_models import UniformError
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.crowd.multibackend import HedgeConfig, backend_preset_by_name
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    MaxScheduler,
    SchedulerJournal,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serve_digests.json"
SEED = 11


def _specs(n_queries):
    return generate_workload(
        workload_by_name("steady"), seed=SEED, n_queries=n_queries
    )


def _report_digest(report):
    payload = repr(
        (report.results, report.makespan, report.ticks, report.questions_posted)
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _trace_digest(tracer):
    """SHA-256 of the trace stream with wall-clock ``seconds`` zeroed.

    ``seconds`` fields (``SpanCompleted``, ``DPTableBuilt``) are the only
    wall-clock payloads; every other field is simulated and must match
    bit for bit.
    """
    digest = hashlib.sha256()
    for record in tracer.records:
        event = record.event
        if hasattr(event, "seconds"):
            event = dataclasses.replace(event, seconds=0.0)
        digest.update(repr((event, record.sim_time)).encode())
    return digest.hexdigest()


def _steady_perfect(workdir):
    return MaxScheduler(_specs(300), mturk_car_latency(), seed=SEED), None


def _uniform_error_repetition_2(workdir):
    scheduler = MaxScheduler(
        _specs(120),
        mturk_car_latency(),
        seed=SEED,
        config=ServiceConfig(repetition=2),
        error_model=UniformError(0.2),
    )
    return scheduler, None


def _lossy_retry_breaker(workdir):
    scheduler = MaxScheduler(
        _specs(120),
        mturk_car_latency(),
        seed=SEED,
        fault_profile=dataclasses.replace(
            fault_profile_by_name("lossy"), outage_prob=0.15
        ),
        retry_policy=RetryPolicy(max_attempts=3),
        breaker_config=CircuitBreakerConfig(
            failure_threshold=2, cooldown_seconds=900.0
        ),
    )
    return scheduler, None


def _duo_hedged_journaled(workdir):
    boutique, bulk = backend_preset_by_name("duo")
    fleet = [
        boutique,
        dataclasses.replace(bulk, fault_profile=fault_profile_by_name("mild")),
    ]
    path = pathlib.Path(workdir) / "duo.jsonl"
    journal = SchedulerJournal.create(path)
    scheduler = MaxScheduler(
        _specs(120),
        mturk_car_latency(),
        seed=SEED,
        config=ServiceConfig(
            routing="least-loaded", hedge=HedgeConfig(hedge_after=300.0)
        ),
        retry_policy=RetryPolicy(max_attempts=3),
        journal=journal,
        backends=fleet,
    )
    return scheduler, journal


CASES = {
    "steady_300_perfect": _steady_perfect,
    "steady_300_perfect_traced": _steady_perfect,
    "uniform_error_0.2_repetition_2": _uniform_error_repetition_2,
    "lossy_retry_breaker": _lossy_retry_breaker,
    "duo_hedged_journaled": _duo_hedged_journaled,
}

TRACED = {"steady_300_perfect_traced"}


def run_case(name):
    """Run one case; returns its digest record and the finished scheduler."""
    tracer = RecordingTracer(clock=lambda: 0.0)
    with tempfile.TemporaryDirectory() as workdir:
        with use_tracer(tracer) if name in TRACED else contextlib.nullcontext():
            scheduler, journal = CASES[name](workdir)
            report = scheduler.run()
        record = {"report_sha256": _report_digest(report)}
        if name in TRACED:
            record["trace_sha256"] = _trace_digest(tracer)
        if journal is not None:
            journal.close()
            record["journal_sha256"] = hashlib.sha256(
                journal.path.read_bytes()
            ).hexdigest()
    return record, scheduler


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_no_unknown_or_missing_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_serve_digest_unchanged(golden, name):
    record, _ = run_case(name)
    assert record == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    digests = {name: run_case(name)[0] for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
