"""Theorem 4 experimentally: worst-case latency per question selector.

Runs the same tDP allocation against the maxRC adversary under different
selectors.  Tournament formation is immune (each clique yields exactly one
winner); SPREAD's near-regular graphs admit large independent sets, so the
adversary keeps many candidates alive and the run fails to terminate.
The exact adversary's ``mis.branch_nodes`` work counter is reported per
selector; on tournament rounds (disjoint cliques) it must be zero.
"""

import numpy as np

from _harness import run_and_report
from repro.core.latency import mturk_car_latency
from repro.core.tdp import TDPAllocator
from repro.engine.adversarial import AdversarialMaxEngine
from repro.experiments.tables import ExperimentResult
from repro.obs.profiling import profiled
from repro.selection.ct import ct25
from repro.selection.spread import Spread
from repro.selection.tournament import TournamentFormation

N_ELEMENTS = 60
BUDGET = 400


def _run():
    latency = mturk_car_latency()
    allocation = TDPAllocator().allocate(N_ELEMENTS, BUDGET, latency)
    table = ExperimentResult(
        name="worst-case-selectors",
        title="Adversarial (maxRC) execution of the same tDP allocation",
        columns=(
            "selector",
            "worst-case latency (s)",
            "singleton",
            "final candidates",
            "MIS branch nodes",
        ),
        notes=(
            f"c0={N_ELEMENTS}, b={BUDGET}, exact maxRC adversary; "
            f"allocation {allocation.round_budgets}"
        ),
    )
    for selector in (
        TournamentFormation(spend_leftover=False),
        Spread(),
        ct25(),
    ):
        engine = AdversarialMaxEngine(
            selector, latency, np.random.default_rng(3), mode="exact"
        )
        with profiled(publish=False) as profiler:
            result = engine.run(N_ELEMENTS, allocation)
            branch_nodes = profiler.snapshot().get("mis.branch_nodes", 0)
        final = (
            result.records[-1].candidates_after if result.records else N_ELEMENTS
        )
        table.add_row(
            selector.name,
            result.total_latency,
            result.singleton_termination,
            final,
            branch_nodes,
        )
    return [table]


def bench_worst_case_selectors(benchmark):
    (table,) = run_and_report(benchmark, _run)
    rows = {row[0]: row for row in table.rows}
    assert rows["Tournament"][2] is True
    assert rows["Tournament"][3] == 1
    # An exact work counter, not wall time: the clique components of a
    # tournament round settle without a single branch.
    assert rows["Tournament"][4] == 0
    # No selector survives the adversary with less latency AND fewer
    # remaining candidates than tournament formation (Theorem 4).
    for name, row in rows.items():
        if name == "Tournament":
            continue
        assert (not row[2]) or row[1] >= rows["Tournament"][1] - 1e-9
