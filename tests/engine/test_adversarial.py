"""Tests for the adversarial (worst-case) execution engine."""

import numpy as np
import pytest

from repro.core.latency import LinearLatency, mturk_car_latency
from repro.core.tdp import TDPAllocator, solve_min_latency
from repro.engine.adversarial import (
    AdversarialMaxEngine,
    greedy_independent_set,
)
from repro.errors import InvalidParameterError
from repro.obs.profiling import profiled
from repro.selection.spread import Spread
from repro.selection.tournament import TournamentFormation

LATENCY = LinearLatency(100, 1.0)


class TestGreedyIndependentSet:
    def test_result_is_independent_and_maximal(self):
        nodes = list(range(6))
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        chosen = greedy_independent_set(nodes, edges)
        edge_set = set(edges)
        for a in chosen:
            for b in chosen:
                if a < b:
                    assert (a, b) not in edge_set
        # Maximality: every non-member has a neighbor inside.
        for v in set(nodes) - chosen:
            assert any(
                (min(v, u), max(v, u)) in edge_set for u in chosen
            )

    def test_empty_graph_keeps_everyone(self):
        assert greedy_independent_set(range(4), []) == set(range(4))

    def test_foreign_question_rejected(self):
        with pytest.raises(InvalidParameterError):
            greedy_independent_set([0, 1], [(0, 9)])

    def test_self_comparison_rejected(self):
        with pytest.raises(InvalidParameterError):
            greedy_independent_set([0, 1], [(1, 1)])


class TestAdversarialRuns:
    def test_tournament_worst_case_matches_plan(self):
        """Against tournament selection the adversary has no power: every
        clique yields exactly one winner, so the run follows the tDP plan
        and its latency equals the plan's optimum."""
        n, budget = 40, 200
        allocation = TDPAllocator().allocate(n, budget, LATENCY)
        engine = AdversarialMaxEngine(
            TournamentFormation(spend_leftover=False),
            LATENCY,
            np.random.default_rng(0),
            mode="exact",
        )
        result = engine.run(n, allocation)
        assert result.singleton_termination
        executed = [r.candidates_before for r in result.records]
        executed.append(result.records[-1].candidates_after)
        assert tuple(executed) == allocation.element_sequence
        plan = solve_min_latency(n, budget, LATENCY)
        assert result.total_latency == pytest.approx(plan.total_latency)

    def test_spread_worse_than_tournament_in_the_worst_case(self):
        """Theorem 4 experimentally: under the same allocation, SPREAD's
        worst case leaves more candidates (or needs more time) than
        tournament formation's."""
        n, budget = 24, 120
        allocation = TDPAllocator().allocate(n, budget, LATENCY)

        def final_candidates(selector):
            engine = AdversarialMaxEngine(
                selector, LATENCY, np.random.default_rng(1), mode="exact"
            )
            result = engine.run(n, allocation)
            return result

        tournament = final_candidates(TournamentFormation(spend_leftover=False))
        spread = final_candidates(Spread())
        assert tournament.singleton_termination
        # SPREAD's random near-regular graphs admit larger independent
        # sets than cliques, so the adversary keeps it from terminating.
        assert not spread.singleton_termination or (
            spread.total_latency >= tournament.total_latency
        )

    def test_greedy_mode_is_a_legal_adversary(self):
        """Greedy-mode survivors are consistent: the run stays acyclic and
        candidate counts never increase."""
        n, budget = 30, 160
        allocation = TDPAllocator().allocate(n, budget, LATENCY)
        engine = AdversarialMaxEngine(
            Spread(), LATENCY, np.random.default_rng(2), mode="greedy"
        )
        result = engine.run(n, allocation)
        for record in result.records:
            assert record.candidates_after <= record.candidates_before

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            AdversarialMaxEngine(
                Spread(), LATENCY, np.random.default_rng(0), mode="evil"
            )

    def test_invalid_elements(self):
        engine = AdversarialMaxEngine(
            Spread(), LATENCY, np.random.default_rng(0)
        )
        with pytest.raises(InvalidParameterError):
            engine.run(0, TDPAllocator().allocate(10, 50, LATENCY))


class TestMisWorkCounters:
    """The exact adversary's MIS work counters (``mis.*``) are exact."""

    @staticmethod
    def _profile_tournament():
        latency = mturk_car_latency()
        allocation = TDPAllocator().allocate(60, 400, latency)
        engine = AdversarialMaxEngine(
            TournamentFormation(spend_leftover=False),
            latency,
            np.random.default_rng(3),
            mode="exact",
        )
        with profiled(publish=False) as profiler:
            result = engine.run(60, allocation)
            counts = profiler.snapshot()
        return result, counts

    def test_tournament_rounds_never_branch(self):
        """A tournament round is a union of disjoint cliques: every
        component settles in one step (c0=60, b=400)."""
        result, counts = self._profile_tournament()
        assert result.singleton_termination
        assert counts["mis.branch_nodes"] == 0
        assert counts["mis.calls"] == len(result.records)
        assert counts["mis.clique_components"] > 0
        assert self._profile_tournament()[1] == counts
