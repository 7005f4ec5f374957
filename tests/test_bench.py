"""Tests for benchmark regression artifacts (``repro.bench``)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    append_history,
    combine_times,
    compare_times,
    filter_times,
    load_bench_times,
    load_history,
    make_artifact,
    make_history_entry,
    render_history,
    write_artifact,
)
from repro.errors import InvalidParameterError


class TestArtifacts:
    def test_make_and_write(self, tmp_path):
        artifact = make_artifact("bench_solve", 1.25, scale="smoke")
        assert artifact["kind"] == "bench_artifact"
        assert artifact["schema"] == BENCH_SCHEMA_VERSION
        path = write_artifact(artifact, tmp_path / "artifacts")
        assert path.name == "BENCH_bench_solve.json"
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == artifact

    def test_rejects_negative_seconds(self):
        with pytest.raises(InvalidParameterError):
            make_artifact("b", -0.1, scale="smoke")

    def test_compact_metrics_ride_along(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("lat").observe(2.0)
        artifact = make_artifact(
            "b", 1.0, scale="smoke", metrics=registry.snapshot()
        )
        assert artifact["metrics"]["lat"]["count"] == 1
        assert "samples" not in artifact["metrics"]["lat"]  # compacted


REPO = pathlib.Path(__file__).resolve().parent.parent

TWO_BENCHES = """
from repro.obs.metrics import get_registry


def bench_first():
    get_registry().counter("isolation.first").inc(3)


def bench_second():
    get_registry().counter("isolation.second").inc(5)
"""


class TestBenchFixtureIsolation:
    def test_metrics_do_not_leak_between_benches(self, tmp_path):
        """Two benches in one session: each artifact holds its own metrics."""
        (tmp_path / "bench_isolation.py").write_text(TWO_BENCHES)
        artifacts = tmp_path / "artifacts"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(REPO / "benchmarks"), str(REPO / "src")]
            ),
            REPRO_BENCH_ARTIFACTS=str(artifacts),
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "bench_isolation.py", "-q",
                "-p", "no:cacheprovider",
                # The benchmark fixtures, loaded as a plugin by module name.
                "-p", "conftest",
                "-c", str(REPO / "pyproject.toml"),
                "--rootdir", str(tmp_path),
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        metrics = {
            name: json.loads(
                (artifacts / f"BENCH_bench_{name}.json").read_text()
            )["metrics"]
            for name in ("first", "second")
        }
        assert metrics["first"] == {
            "isolation.first": {"type": "counter", "value": 3}
        }
        assert metrics["second"] == {
            "isolation.second": {"type": "counter", "value": 5}
        }


class TestLoadBenchTimes:
    def test_loads_a_directory_of_artifacts(self, tmp_path):
        write_artifact(make_artifact("a", 1.0, scale="smoke"), tmp_path)
        write_artifact(make_artifact("b", 2.0, scale="smoke"), tmp_path)
        assert load_bench_times(tmp_path) == {"a": 1.0, "b": 2.0}

    def test_loads_a_single_artifact(self, tmp_path):
        path = write_artifact(make_artifact("a", 1.5, scale="smoke"), tmp_path)
        assert load_bench_times(path) == {"a": 1.5}

    def test_loads_a_combined_baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(combine_times({"a": 1.0})), encoding="utf-8"
        )
        assert load_bench_times(path) == {"a": 1.0}

    def test_rejects_unrecognized_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "other"}', encoding="utf-8")
        with pytest.raises(InvalidParameterError):
            load_bench_times(path)


class TestCompareTimes:
    def test_threshold_boundary(self):
        # 25% over baseline is the default tolerance: exactly at the
        # boundary passes, just beyond fails.
        assert compare_times({"b": 1.0}, {"b": 1.25}).ok
        assert not compare_times({"b": 1.0}, {"b": 1.26}).ok

    def test_speedups_pass(self):
        assert compare_times({"b": 1.0}, {"b": 0.1}).ok

    def test_render_names_the_regressed_bench(self):
        comparison = compare_times({"b": 1.0}, {"b": 3.0})
        text = comparison.render()
        assert "b" in text
        assert "FAIL" in text
        assert "3.00" in text


class TestFilterTimes:
    def test_empty_patterns_keep_everything(self):
        times = {"bench_a": 1.0, "bench_b": 2.0}
        assert filter_times(times, []) == times

    def test_exact_and_glob_patterns(self):
        times = {"bench_solve": 1.0, "bench_render": 2.0, "other": 3.0}
        assert filter_times(times, ["bench_solve"]) == {"bench_solve": 1.0}
        assert filter_times(times, ["bench_*"]) == {
            "bench_solve": 1.0, "bench_render": 2.0,
        }

    def test_any_pattern_matching_keeps_the_bench(self):
        times = {"a": 1.0, "b": 2.0}
        assert filter_times(times, ["a", "nope"]) == {"a": 1.0}

    def test_no_match_yields_empty(self):
        assert filter_times({"a": 1.0}, ["zzz"]) == {}


class TestHistory:
    def test_make_history_entry_shape(self):
        entry = make_history_entry(
            {"bench_a": 1.5}, git_sha="abc123", timestamp="2026-08-08T00:00:00",
        )
        assert entry["kind"] == "bench_history"
        assert entry["schema"] == BENCH_SCHEMA_VERSION
        assert entry["git_sha"] == "abc123"
        assert entry["benches"] == {"bench_a": 1.5}

    def test_empty_times_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_history_entry({})

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        first = make_history_entry({"a": 1.0}, git_sha="s1")
        second = make_history_entry({"a": 1.1}, git_sha="s2")
        append_history(first, path)
        append_history(second, path)
        assert load_history(path) == [first, second]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = make_history_entry({"a": 1.0})
        append_history(entry, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write('"a bare string"\n')
        assert load_history(path) == [entry]


class TestRenderHistory:
    def _entries(self, *times):
        return [make_history_entry({"bench_a": t}) for t in times]

    def test_empty_history_placeholder(self):
        assert render_history([]) == "bench history: (empty)"

    def test_header_counts_runs(self):
        text = render_history(self._entries(1.0, 1.1))
        assert "2 run(s)" in text

    def test_flags_regressions_against_baseline(self):
        text = render_history(
            self._entries(1.0, 3.0), baseline={"bench_a": 1.0},
        )
        assert "3.00x !" in text

    def test_within_threshold_is_not_flagged(self):
        text = render_history(
            self._entries(1.0, 1.1), baseline={"bench_a": 1.0},
        )
        assert "1.10x" in text
        assert "!" not in text

    def test_missing_baseline_entry_renders_dash(self):
        text = render_history(
            self._entries(1.0), baseline={"bench_other": 1.0},
        )
        assert "-" in text

    def test_limit_trims_the_sparkline_not_the_latest(self):
        entries = self._entries(*[float(i + 1) for i in range(30)])
        text = render_history(entries, limit=5)
        assert "30.000" in text
