"""Write-ahead journal and deterministic recovery."""

import json
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosScenario, build_scheduler
from repro.core.latency import mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.errors import JournalCorruptError
from repro.obs import get_registry
from repro.service import (
    JOURNAL_VERSION,
    MaxScheduler,
    SchedulerJournal,
    encode_record,
    generate_workload,
    read_journal,
    recover_scheduler,
    scheduler_from_header,
    workload_by_name,
)


#: A journal line's fields apart from its CRC.
FIELDS = ("record", "seq", "payload")


def _specs(workload="smoke", seed=7, n_queries=None):
    return generate_workload(
        workload_by_name(workload), seed=seed, n_queries=n_queries
    )


def _scheduler(journal=None, workload="smoke", seed=7, **kwargs):
    return MaxScheduler(
        _specs(workload=workload, seed=seed),
        mturk_car_latency(),
        seed=seed,
        journal=journal,
        **kwargs,
    )


def _faulty_kwargs():
    return {
        "fault_profile": fault_profile_by_name("outages"),
        "retry_policy": RetryPolicy(),
    }


class TestJournalWriting:
    def test_journaled_run_matches_unjournaled(self, tmp_path):
        baseline = _scheduler().run()
        with SchedulerJournal.create(tmp_path / "run.jsonl") as journal:
            report = _scheduler(journal=journal).run()
        assert report == baseline

    def test_journal_is_line_delimited_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SchedulerJournal.create(path) as journal:
            _scheduler(journal=journal).run()
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert records[0]["payload"]["version"] == JOURNAL_VERSION
        assert records[-1]["record"] == "complete"
        assert [rec["seq"] for rec in records] == list(range(len(records)))
        kinds = {rec["record"] for rec in records}
        assert {"admit", "plan", "round_posted", "answers_collected",
                "finalize", "snapshot"} <= kinds

    def test_snapshot_interval_thins_snapshots(self, tmp_path):
        dense = tmp_path / "dense.jsonl"
        sparse = tmp_path / "sparse.jsonl"
        with SchedulerJournal.create(dense, snapshot_interval=1) as journal:
            _scheduler(journal=journal, workload="steady", seed=3).run()
        with SchedulerJournal.create(sparse, snapshot_interval=5) as journal:
            _scheduler(journal=journal, workload="steady", seed=3).run()

        def n_snapshots(path):
            return sum(
                1
                for line in path.read_text(encoding="utf-8").splitlines()
                if json.loads(line)["record"] == "snapshot"
            )

        assert n_snapshots(sparse) < n_snapshots(dense)

    def test_rejects_writes_after_close(self, tmp_path):
        journal = SchedulerJournal.create(tmp_path / "run.jsonl")
        journal.close()
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            journal.record("admit", {})
        journal.close()  # idempotent


class TestRecovery:
    @pytest.mark.parametrize("crash_after", [0, 1, 3])
    def test_recovery_is_bit_identical_under_faults(self, tmp_path, crash_after):
        baseline = _scheduler(**_faulty_kwargs()).run()
        path = tmp_path / "crash.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal, **_faulty_kwargs())
        steps = 0
        while steps < crash_after and victim.step():
            steps += 1
        journal.close()
        recovered = recover_scheduler(path)
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovery_with_sparse_snapshots_replays_lost_ticks(self, tmp_path):
        baseline = _scheduler(workload="steady", seed=3).run()
        path = tmp_path / "sparse.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=5)
        victim = _scheduler(journal=journal, workload="steady", seed=3)
        steps = 0
        while steps < 3 and victim.step():
            steps += 1
        journal.close()
        recovered = recover_scheduler(path)
        # The last snapshot is older than the crash point; the lost ticks
        # must be replayed deterministically.
        assert recovered.ticks < steps
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovered_run_is_itself_recoverable(self, tmp_path):
        """The resumed journal must support a second crash/recover cycle."""
        baseline = _scheduler().run()
        path = tmp_path / "twice.jsonl"
        journal = SchedulerJournal.create(path)
        first = _scheduler(journal=journal)
        first.step()
        journal.close()
        second = recover_scheduler(path)
        second.step()
        second.journal.close()
        third = recover_scheduler(path)
        report = third.run()
        third.journal.close()
        assert report == baseline

    def test_recover_without_resume_leaves_journal_untouched(self, tmp_path):
        path = tmp_path / "frozen.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal)
        victim.step()
        journal.close()
        before = path.read_bytes()
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.journal is None
        recovered.run()
        assert path.read_bytes() == before

    def test_recovery_preserves_breaker_and_fault_config(self, tmp_path):
        kwargs = dict(
            _faulty_kwargs(),
            breaker_config=CircuitBreakerConfig(failure_threshold=2),
        )
        baseline = _scheduler(seed=11, **kwargs).run()
        path = tmp_path / "breaker.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal, seed=11, **kwargs)
        for _ in range(2):
            victim.step()
        journal.close()
        recovered = recover_scheduler(path)
        assert recovered.router.backends[0].breaker is not None
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovery_counts_metric(self, tmp_path):
        path = tmp_path / "metric.jsonl"
        journal = SchedulerJournal.create(path)
        _scheduler(journal=journal).run()
        journal.close()
        counter = get_registry().counter("service.recoveries")
        before = counter.value
        recover_scheduler(path, resume_journal=False)
        assert counter.value == before + 1


class TestCorruption:
    def _journal_after_steps(self, tmp_path, steps=2):
        path = tmp_path / "base.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal)
        for _ in range(steps):
            victim.step()
        journal.close()
        return path

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            recover_scheduler(tmp_path / "nope.jsonl")

    def test_empty_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(JournalCorruptError):
            recover_scheduler(path)

    def test_garbage_header_raises_typed_error(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"record": "not-a-header", "seq": 0}\n')
        with pytest.raises(JournalCorruptError):
            recover_scheduler(path)

    def test_truncated_last_record_recovers_from_last_snapshot(self, tmp_path):
        baseline = _scheduler().run()
        path = self._journal_after_steps(tmp_path)
        text = path.read_text(encoding="utf-8")
        # Chop the last record mid-line, as a crash during a write would.
        path.write_text(text[: len(text) - 17], encoding="utf-8")
        contents = read_journal(path)
        assert contents.tail_corrupt
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.run() == baseline

    def test_garbage_tail_recovers_from_last_snapshot(self, tmp_path):
        baseline = _scheduler().run()
        path = self._journal_after_steps(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\x00\x00 not json at all\n")
        contents = read_journal(path)
        assert contents.tail_corrupt
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.run() == baseline

    def test_unterminated_final_line_is_treated_as_truncated(self, tmp_path):
        path = self._journal_after_steps(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        path.write_text(text.rstrip("\n"), encoding="utf-8")
        # The final record parses as JSON, but without its newline it may
        # be a partial write — the reader must not trust it.
        assert read_journal(path).tail_corrupt

    def test_no_intact_snapshot_raises_typed_error(self, tmp_path):
        path = self._journal_after_steps(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = [
            line
            for line in lines
            if json.loads(line)["record"] != "snapshot"
        ]
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="snapshot"):
            recover_scheduler(path)

    def test_pre_fleet_snapshot_layout_raises_typed_error(self, tmp_path):
        # Before every scheduler owned a backend fleet, a fleet-less run
        # kept its crowd state in top-level slots and wrote no backends.
        path = self._journal_after_steps(tmp_path)
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        for record in records:
            if record["record"] == "snapshot":
                snapshot = record["payload"]
                (backend,) = snapshot["backends"]
                for key in ("rng", "platform", "fault", "breaker"):
                    snapshot[key] = backend[key]
                snapshot["backends"] = None
        path.write_text(
            "".join(
                encode_record({key: record[key] for key in FIELDS})
                for record in records
            ),
            encoding="utf-8",
        )
        with pytest.raises(JournalCorruptError, match="configured fleet"):
            recover_scheduler(path, resume_journal=False)

    def test_corruption_errors_never_leak_json_tracebacks(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        try:
            recover_scheduler(path)
        except JournalCorruptError:
            pass
        else:  # pragma: no cover - defensive
            pytest.fail("expected JournalCorruptError")

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            SchedulerJournal.resume(tmp_path / "absent.jsonl")


class TestHeaderRoundTrip:
    def test_header_rebuilds_equivalent_scheduler(self, tmp_path):
        path = tmp_path / "header.jsonl"
        journal = SchedulerJournal.create(path)
        kwargs = dict(
            _faulty_kwargs(),
            breaker_config=CircuitBreakerConfig(
                failure_threshold=2, cooldown_seconds=900.0
            ),
        )
        original = _scheduler(journal=journal, **kwargs)
        journal.close()
        header = read_journal(path).header
        rebuilt = scheduler_from_header(header)
        assert rebuilt.seed == original.seed
        assert rebuilt.config == original.config
        assert (
            rebuilt.router.backends[0].breaker.config
            == original.router.backends[0].breaker.config
        )
        # Both untouched schedulers must then run identically.
        assert rebuilt.run() == _scheduler(**kwargs).run()

    def test_header_with_missing_keys_raises_typed_error(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            scheduler_from_header({"version": JOURNAL_VERSION})


class TestMidRoundCheckpoint:
    def test_snapshot_captures_pending_questions(self, tmp_path):
        """Sessions awaiting answers serialize their pending pairs."""
        path = tmp_path / "pending.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        victim = _scheduler(journal=journal, **_faulty_kwargs())
        # After two ticks of the outages profile some sessions are
        # mid-round (questions swallowed by a fault, answers outstanding);
        # the snapshot must reproduce the exact pending state.
        victim.step()
        victim.step()
        journal.close()
        contents = read_journal(path)
        active = contents.last_snapshot["active"]
        assert any(
            entry["session"]["pending"] for entry in active
        ), "expected a mid-round session after two faulty ticks"
        recovered = recover_scheduler(path, resume_journal=False)
        for entry in active:
            query = next(
                q
                for q in recovered._active
                if q.spec.query_id == entry["spec"]["query_id"]
            )
            got = (
                [list(pair) for pair in query.session.pending]
                if query.session.pending is not None
                else None
            )
            want = entry["session"]["pending"]
            assert got == want


class TestLiveStateSnapshots:
    def _drained_journal(self, tmp_path, **kwargs):
        path = tmp_path / "run.jsonl"
        with SchedulerJournal.create(path) as journal:
            report = _scheduler(journal=journal, **kwargs).run()
        return path, report

    def test_each_result_is_journaled_once_with_its_ordinal(self, tmp_path):
        path, report = self._drained_journal(tmp_path)
        contents = read_journal(path)
        finished = [
            record["payload"]
            for record in contents.records
            if record["record"] in ("finalize", "shed")
        ]
        assert [p["ordinal"] for p in finished] == list(range(report.n_queries))
        snapshot = contents.last_snapshot
        assert snapshot["n_results"] == report.n_queries
        assert snapshot["backlog_start"] == report.n_queries
        assert "results" not in snapshot and "backlog" not in snapshot
        assert sorted(contents.results, key=lambda r: r.spec.query_id) == list(
            report.results
        )

    def test_missing_finalize_record_is_a_gap(self, tmp_path):
        path, _ = self._drained_journal(tmp_path)
        contents = read_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        victim = next(
            i
            for i, record in enumerate(contents.records)
            if record["record"] == "finalize"
        )
        path.write_bytes(b"".join(lines[:victim] + lines[victim + 1:]))
        # Every line still checks out; the ordinals show the gap.
        with pytest.raises(
            JournalCorruptError, match="byte offset .* has ordinal 1, expected 0"
        ):
            read_journal(path)


class TestChecksums:
    def _journal(self, tmp_path):
        path = tmp_path / "crc.jsonl"
        with SchedulerJournal.create(path) as journal:
            _scheduler(journal=journal).run()
        return path

    def test_every_line_carries_a_crc_of_its_record(self, tmp_path):
        path = self._journal(tmp_path)
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            crc = record.pop("crc")
            body = json.dumps(record, separators=(",", ":"))
            assert crc == zlib.crc32(body.encode("ascii"))
            assert line == body[:-1] + f',"crc":{crc}}}'
            assert encode_record(record) == line + "\n"

    def test_flip_that_still_parses_raises_with_its_offset(self, tmp_path):
        path = self._journal(tmp_path)
        data = path.read_bytes()
        contents = read_journal(path)
        index = next(
            i
            for i, record in enumerate(contents.records)
            if record["record"] == "finalize"
        )
        start = contents.offsets[index]
        line = data[start:data.index(b"\n", start)]
        # Change the latency's leading digit: still valid JSON, so only
        # the checksum can tell.
        digit = line.index(b'"latency":') + len(b'"latency":')
        flipped = b"1" if line[digit:digit + 1] != b"1" else b"2"
        corrupt = data[: start + digit] + flipped + data[start + digit + 1:]
        json.loads(corrupt[start:corrupt.index(b"\n", start)])
        path.write_bytes(corrupt)
        with pytest.raises(JournalCorruptError, match=f"byte offset {start} "):
            recover_scheduler(path, resume_journal=False)

    def test_bad_last_line_is_a_torn_tail(self, tmp_path):
        baseline = _scheduler().run()
        path = self._journal(tmp_path)
        data = bytearray(path.read_bytes())
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        data[last + 3] ^= 0x01
        path.write_bytes(bytes(data))
        contents = read_journal(path)
        assert contents.tail_corrupt
        assert contents.records[-1]["record"] == "snapshot"
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.run() == baseline


class TestResumeAfterTornTail:
    def test_resumed_run_stays_readable_to_its_completion(self, tmp_path):
        baseline = _scheduler(workload="steady").run()
        assert baseline.ticks == 11
        path = tmp_path / "torn.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal, workload="steady")
        for _ in range(7):
            victim.step()
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        recovered = recover_scheduler(path)
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

        contents = read_journal(path)
        assert not contents.tail_corrupt
        assert contents.records[-1]["record"] == "complete"
        assert contents.records[-1]["payload"]["ticks"] == baseline.ticks
        assert contents.last_snapshot["ticks"] == baseline.ticks
        # seq runs on from the restored snapshot: no restart, no repeats.
        seqs = [record["seq"] for record in contents.records]
        assert seqs == list(range(len(seqs)))
        ticks = [
            record["payload"]["tick"]
            for record in contents.records
            if record["record"] == "tick"
        ]
        assert ticks == list(range(1, baseline.ticks + 1))


@pytest.fixture(scope="module")
def chaos_journal(tmp_path_factory):
    """A journaled chaos ``steady`` run: its bytes and its live report."""
    scenario = ChaosScenario(
        workload="steady",
        seed=3,
        faults="outages",
        retry_policy=RetryPolicy(),
        snapshot_interval=3,
    )
    path = tmp_path_factory.mktemp("fuzz") / "live.jsonl"
    with SchedulerJournal.create(
        path, snapshot_interval=scenario.snapshot_interval
    ) as journal:
        report = build_scheduler(scenario, journal=journal).run()
    return path.read_bytes(), report


class TestCorruptionFuzz:
    """Damage either recovers the live report or names its offset."""

    @staticmethod
    def _recover_or_raise(tmp_path_factory, data, live_report):
        path = tmp_path_factory.mktemp("case") / "damaged.jsonl"
        path.write_bytes(data)
        try:
            recovered = recover_scheduler(path, resume_journal=False)
        except JournalCorruptError as error:
            assert "byte offset" in str(error)
            return
        assert recovered.run() == live_report

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    def test_truncation(self, chaos_journal, tmp_path_factory, cut):
        data, live_report = chaos_journal
        self._recover_or_raise(
            tmp_path_factory, data[: int(cut * len(data))], live_report
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_flip(
        self, chaos_journal, tmp_path_factory, where, mask
    ):
        data, live_report = chaos_journal
        damaged = bytearray(data)
        damaged[int(where * len(data))] ^= mask
        self._recover_or_raise(tmp_path_factory, bytes(damaged), live_report)


class TestJournalSize:
    @staticmethod
    def _journaled_steady(tmp_path, n_queries):
        path = tmp_path / f"steady-{n_queries}.jsonl"
        with SchedulerJournal.create(path) as journal:
            MaxScheduler(
                _specs(workload="steady", seed=1, n_queries=n_queries),
                mturk_car_latency(),
                seed=1,
                journal=journal,
            ).run()
        snapshots = [
            line
            for line in path.read_bytes().splitlines()
            if line.startswith(b'{"record":"snapshot"')
        ]
        return path.stat().st_size / n_queries, len(snapshots[-1])

    def test_bytes_per_query_stay_flat_and_snapshots_small(self, tmp_path):
        small, _ = self._journaled_steady(tmp_path, 250)
        large, last_snapshot = self._journaled_steady(tmp_path, 1000)
        assert max(small, large) / min(small, large) < 1.3
        assert last_snapshot < 20_000
