"""The repo benchmark: serve throughput and per-layer cost.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run generates one episode of the workload from ``--seed`` (see
``workloads.py``) and drives it again and again until ``--seconds`` have
passed.  The passes see identical inputs, so their outputs must be
identical too.

``--trace 0`` runs every pass untraced and reports host-speed-corrected
times.  A shared host runs the same code 1.2-1.9x slower for seconds at a
time, and a slow spell can cover a whole run.  So a fixed pure-Python
reference loop is timed right before every operation (and before set-up
and after the last operation), and each operation's wall time is scaled
by ``REF_SECONDS`` over the mean of the two reference times around it:
the time the operation would take on a host that runs the reference loop
in ``REF_SECONDS``.  Each operation's corrected time is the median over
passes, and the end-to-end metrics are computed from those medians.  The
uncorrected per-operation minima are printed beside them.  ``--trace 1``
alternates an untraced pass with a traced one and prints the per-layer
metrics (uncorrected wall times, medians over traced passes) and the
tracing overhead.  ``--workload all`` runs each workload in a fresh
interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 on a usage
error or when the repository's sources are missing.  Workloads, seeds and
the layer behind each metric are described in ``provenance.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("steady", "fleet", "plan")
#: Untraced passes every ``--trace 0`` run makes, however short --seconds.
MIN_PASSES = 3
#: Iterations of the reference loop: about 50 us of dict work in CPython.
REF_ITERATIONS = 600
#: Reference-loop duration that corrected times are scaled to.
REF_SECONDS = 50e-6

UNITS = {
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_share": "share",
    "sim_latency_p95_s": "s",
    "sim_makespan_s": "s",
    "questions_per_query": "count",
}


def percentile(values: List[float], p: int) -> float:
    """Nearest-rank percentile (the convention of the service report)."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def report_failures(failures: List[str]) -> None:
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more", file=sys.stderr)


def reference_loop() -> Dict[int, int]:
    """Fixed interpreter work whose duration tracks the host's speed."""
    table: Dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        key = i % 13
        table[key] = table.get(key, 0) + i
    return table


class SpeedProbe:
    """Times the reference loop each time it is called.

    Called before set-up, before every operation and after the episode,
    so interval ``i`` (between samples ``i`` and ``i + 1``) is set-up for
    ``i == 0`` and operation ``i - 1`` after it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __call__(self, op: int = -1) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def scale(self, interval: int) -> float:
        """Factor from wall time in *interval* to reference-speed time."""
        local = self.samples[interval] + self.samples[interval + 1]
        return 2.0 * REF_SECONDS / local


def one_pass(workload: str, seed: int, on_step=None):
    """One episode from a clean interpreter state; returns (wall, episode)."""
    import workloads as wl
    from repro.obs.metrics import get_registry

    gc.collect()
    get_registry().reset()
    start = time.perf_counter()
    episode = wl.run_episode(workload, seed, OUT, on_step)
    return time.perf_counter() - start, episode


def probed_pass(workload: str, seed: int):
    """One untraced episode with the reference loop timed around each op."""
    probe = SpeedProbe()
    probe()
    episode = one_pass(workload, seed, probe)[1]
    probe()
    return episode, probe


def check_passes(episodes: list) -> List[str]:
    """Output checks of every pass, plus identical outputs across passes."""
    failures = [f for e in episodes for f in e.failures]
    if any(e.digest != episodes[0].digest for e in episodes):
        failures.append("passes over identical inputs gave different outputs")
    return failures


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload: str, seed: int, seconds: float) -> int:
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    wl.warm_up(workload, OUT)
    passes, probes = [], []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        episode, probe = probed_pass(workload, seed)
        passes.append(episode)
        probes.append(probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_passes(passes)
    if failures:
        report_failures(failures)
        emit(False, sum(e.ops_done for e in passes), len(failures), {})
        return 1

    # Identical passes: the i-th operation did the same work every time.
    n_ops = len(passes[0].op_s)
    op_med = [
        statistics.median(
            e.op_s[i] * probe.scale(i + 1) for e, probe in zip(passes, probes)
        )
        for i in range(n_ops)
    ]
    tail_med = statistics.median(
        (e.run_s - sum(e.op_s)) * probe.scale(len(probe.samples) - 2)
        for e, probe in zip(passes, probes)
    )
    op_min = [min(times) for times in zip(*(e.op_s for e in passes))]
    tail_min = min(e.run_s - sum(e.op_s) for e in passes)
    first = passes[0]
    done = first.ops_done
    values = {
        "throughput_per_s": done / (sum(op_med) + tail_med),
        "op_p50_ms": percentile(op_med, 50) * 1e3,
        "op_p95_ms": percentile(op_med, 95) * 1e3,
        "setup_s": statistics.median(
            e.setup_s * probe.scale(0) for e, probe in zip(passes, probes)
        ),
        "peak_rss_mb": rss_mb,
        "served_share": first.served / done,
        "sim_latency_p95_s": percentile(first.sim_latencies, 95),
        "sim_makespan_s": first.makespan,
        "questions_per_query": first.questions / done,
    }
    reference = [t for probe in probes for t in probe.samples]

    print(f"workload {workload}, seed {seed}: {len(passes)} passes over "
          f"{done} ops (op = {wl.WORKLOADS[workload]}); op times are "
          f"medians over passes of times corrected to a "
          f"{REF_SECONDS * 1e6:g} us reference loop, n={n_ops}; setup_s "
          f"median of {len(passes)}")
    for name, value in values.items():
        print(f"  {name:<24} {value:.6g} {UNITS[name]}")
    print(f"  uncorrected: reference loop median "
          f"{statistics.median(reference) * 1e6:.4g} us (min "
          f"{min(reference) * 1e6:.4g}); per-op minima give throughput "
          f"{done / (sum(op_min) + tail_min):.6g} 1/s, p50 "
          f"{percentile(op_min, 50) * 1e3:.6g} ms, p95 "
          f"{percentile(op_min, 95) * 1e3:.6g} ms")
    failed = done - first.served
    print(f"  {'failed_share':<24} {failed}/{done} = {failed / done:.6g} "
          f"(shed, degraded, late or wrong: 1 - served_share)")
    if workload == "fleet":
        print(f"  {'journal_bytes_per_query':<24} "
              f"{first.journal_bytes / done:.6g} B")
        print(f"  {'recover_s':<24} "
              f"{min(e.recover_s for e in passes):.6g} s "
              f"(minimum of {len(passes)})")
    emit(
        True,
        done * len(passes),
        0,
        {name: (value, UNITS[name]) for name, value in values.items()},
    )
    return 0


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def layer_checks(workload: str, metrics: Dict[str, float], episode) -> List[str]:
    """Each workload must load the layers it was chosen for."""
    failures = []
    op_time = sum(episode.op_s)
    if workload == "steady":
        if metrics["tdp.solve_s"] >= 0.05 * op_time:
            failures.append(
                f"steady: tdp.solve_s {metrics['tdp.solve_s']:.4g} s is not "
                f"under 5% of step time {op_time:.4g} s"
            )
    elif workload == "fleet":
        for name in ("router.hedges", "router.backend_outages"):
            if metrics[name] <= 0:
                failures.append(f"fleet: {name} is 0")
        if metrics["brownout.transitions"] <= 0 and episode.shed <= 0:
            failures.append("fleet: no brownout transition and no shed query")
    else:
        solver = metrics["tdp.solve_s"] + metrics["maxrc.mis_s"]
        if solver < 0.9 * op_time:
            failures.append(
                f"plan: tdp.solve_s + maxrc.mis_s = {solver:.4g} s is under "
                f"90% of request time {op_time:.4g} s"
            )
    return failures


def run_traced(workload: str, seed: int, seconds: float) -> int:
    import layers
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    wl.warm_up(workload, OUT)
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    episodes = []
    passes: List[Dict[str, float]] = []
    recorder = None

    def on_step(op: int) -> None:
        recorder.op_id = op

    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        wall, plain = one_pass(workload, seed)
        plain_walls.append(wall)
        episodes.append(plain)
        recorder = layers.SpanRecorder()
        uninstall = layers.install(recorder)
        try:
            wall, episode = one_pass(workload, seed, on_step)
        finally:
            uninstall()
        traced_walls.append(wall)
        episodes.append(episode)
        metrics = layers.layer_metrics(recorder, episode)
        # The drift diagnostic is a wall-time ratio: take it untraced.
        metrics["scheduler.late_cost_ratio"] = plain.late_cost_ratio
        passes.append(metrics)

    failures = check_passes(episodes)
    failures += layer_checks(workload, passes[0], episodes[1])
    for metrics in passes[1:]:
        for name in layers.EXACT_COUNTS:
            if metrics[name] != passes[0][name]:
                failures.append(
                    f"{name} differs between traced passes: "
                    f"{passes[0][name]} vs {metrics[name]}"
                )
    summary = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    for name in layers.EXACT_COUNTS:
        summary[name] = passes[0][name]
    summary["trace.overhead_ratio"] = min(traced_walls) / min(plain_walls)
    spans = OUT / f"spans-{workload}.npz"
    recorder.save(spans)

    print(f"workload {workload}, seed {seed}: {len(passes)} traced passes; "
          f"times are medians over them; spans of the last pass "
          f"({len(recorder.start)}) in {spans.relative_to(ROOT)}")
    for name, value in summary.items():
        print(f"  {name:<28} {value:.6g} {layers.unit_of(name)}")
    if failures:
        report_failures(failures)
    emit(
        not failures,
        sum(e.ops_done for e in episodes),
        len(failures),
        {name: (value, layers.unit_of(name)) for name, value in summary.items()},
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# All workloads, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    worst = 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, child.returncode)
        if child.returncode not in (0, 1) or not lines:
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    emit(correct, attempted, failed, metrics)
    return worst


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the workload's default seed)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        provenance = json.loads((HERE / "provenance.json").read_text())
        args.seed = provenance["workloads"][args.workload]["default_seed"]
    sys.path.insert(0, str(SRC))
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    return run_end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
