"""Remaining-candidate analysis: maxRC, maxIND and expected RC size.

Implements the graph-theoretic machinery of Section 4 and Appendix A:

* ``maxRC(G)`` — the worst-case number of candidates that can survive when
  the questions of the undirected graph ``G`` are asked (Definition 6).
  By Theorem 2 this equals the maximum independent set of ``G``, which is
  how we compute it.
* :func:`worst_case_answers` — the Lemma 2 construction: a concrete answer
  orientation under which a given independent set survives in full.
* ``E[R]`` — the expected RC size under a uniform history (Lemma 4):
  ``sum_v 1 / (d_v + 1)``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.errors import InvalidParameterError
from repro.obs.profiling import PROFILER
from repro.types import Answer, Element, Question, normalize_question

try:
    _popcount = int.bit_count
except AttributeError:  # Python < 3.10

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def _adjacency(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Dict[Element, Set[Element]]:
    adjacency: Dict[Element, Set[Element]] = {e: set() for e in elements}
    if not adjacency:
        raise InvalidParameterError("need at least one element")
    for a, b in questions:
        if a not in adjacency or b not in adjacency:
            raise InvalidParameterError(
                f"question ({a}, {b}) references elements outside the graph"
            )
        if a == b:
            raise InvalidParameterError(f"self-comparison ({a}, {b}) is invalid")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def max_independent_set(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Set[Element]:
    """An exact maximum independent set of the undirected question graph.

    The solver works component by component on bitmasks (bit ``i`` is the
    ``i``-th smallest element).  Each step first peels every vertex of
    degree <= 1: an isolated vertex always joins the MIS, and a degree-1
    vertex can always replace its single neighbor.  What is left splits
    into connected components, solved independently:

    * a complete component (``2|E| = k(k - 1)``) contributes exactly one
      element, its smallest;
    * any other component branches and recurses through the same
      peel / split steps.  It branches on its smallest degree-2 vertex
      ``v`` when it has one (some MIS holds ``v`` or both its neighbors,
      or just ``v`` when they are adjacent), and otherwise on its smallest
      max-degree vertex (in the MIS or not).

    A round of tournament formation is a union of disjoint cliques, so its
    MIS costs one linear pass with no branching at all.  Other graphs stay
    exponential in the worst case, but only within a component.  Every tie
    is broken by element order, so the chosen set depends on the graph
    alone, not on the order of *questions* or of set iteration.

    With :data:`repro.obs.profiling.PROFILER` enabled, each call adds to
    the work counters ``mis.calls``, ``mis.components``,
    ``mis.clique_components`` and ``mis.branch_nodes``.
    """
    adjacency = _adjacency(elements, questions)
    order = sorted(adjacency)
    index = {element: i for i, element in enumerate(order)}
    masks = []
    for element in order:
        mask = 0
        for neighbor in adjacency[element]:
            mask |= 1 << index[neighbor]
        masks.append(mask)
    # [components, clique components, branch nodes]
    tally = [0, 0, 0]
    everyone = (1 << len(order)) - 1
    chosen = _solve_mis(masks, everyone, everyone, tally)
    if PROFILER.enabled:
        PROFILER.add("mis.calls")
        PROFILER.add("mis.components", tally[0])
        PROFILER.add("mis.clique_components", tally[1])
        PROFILER.add("mis.branch_nodes", tally[2])
    return {order[i] for i in _bits(chosen)}


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of *mask*, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve_mis(masks: List[int], live: int, touched: int, tally: List[int]) -> int:
    """An MIS (as a bitmask) of the subgraph induced by *live*.

    Only vertices in *touched* may have degree <= 1 on entry.
    """
    chosen = 0
    # Ascending, so already a heap: vertices peel in element order.
    low = [i for i in _bits(touched & live) if _popcount(masks[i] & live) <= 1]
    while low:
        v = heappop(low)
        bit = 1 << v
        if not live & bit:
            continue
        neighbor = masks[v] & live
        chosen |= bit
        live ^= bit
        if neighbor:
            live ^= neighbor
            for w in _bits(masks[neighbor.bit_length() - 1] & live):
                if _popcount(masks[w] & live) <= 1:
                    heappush(low, w)

    rest = live
    while rest:
        # Breadth-first search from the smallest remaining vertex, noting
        # each vertex's (degree, index) on the way.
        component = frontier = rest & -rest
        degrees = []
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                neighbors = masks[v] & live
                reach |= neighbors
                degrees.append((_popcount(neighbors), v))
            frontier = reach & ~component
            component |= frontier
        rest ^= component
        tally[0] += 1
        k = len(degrees)
        edges2 = sum(d for d, _ in degrees)
        if edges2 == k * (k - 1):
            tally[1] += 1
            chosen |= component & -component
        else:
            chosen |= _branch(masks, component, degrees, tally)
    return chosen


def _branch(
    masks: List[int],
    component: int,
    degrees: List[Tuple[int, int]],
    tally: List[int],
) -> int:
    """An MIS of a connected, non-clique subgraph with degrees >= 2.

    *degrees* lists ``(degree, vertex)`` for every vertex of *component*.
    """
    bottom, v = min(degrees)
    neighbors = masks[v] & component
    second = 0
    if bottom == 2:
        u, w = _bits(neighbors)
        if not masks[u] >> w & 1:
            # Some MIS holds v or both u and w.  (If u and w are adjacent,
            # v is simplicial and some MIS holds it: no second branch.)
            tally[2] += 1
            gone = neighbors | masks[u] | masks[w]
            rest = component & ~gone
            second = neighbors | _solve_mis(masks, rest, _reach(masks, gone), tally)
    else:
        # The smallest max-degree vertex is in some MIS, or in none.
        top = max(d for d, _ in degrees)
        v = min(x for d, x in degrees if d == top)
        neighbors = masks[v] & component
        tally[2] += 1
        second = _solve_mis(masks, component & ~(1 << v), neighbors, tally)
    gone = 1 << v | neighbors
    first = 1 << v | _solve_mis(masks, component & ~gone, _reach(masks, gone), tally)
    return first if _popcount(first) >= _popcount(second) else second


def _reach(masks: List[int], removed: int) -> int:
    """Every vertex adjacent to *removed*."""
    reach = 0
    for v in _bits(removed):
        reach |= masks[v]
    return reach


def max_remaining_candidates(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Set[Element]:
    """A maxRC set of the question graph (Definition 6).

    By Theorem 2 a node set is a maxRC set if and only if it is a maximum
    independent set, so this simply delegates to :func:`max_independent_set`.
    """
    return max_independent_set(elements, questions)


def worst_case_answers(
    elements: Sequence[Element],
    questions: Iterable[Question],
    surviving: Iterable[Element],
) -> List[Answer]:
    """Orient every question so that all of *surviving* survive (Lemma 2).

    Constructs a permutation that ranks the surviving (independent) set on
    top and orients each question edge toward the higher-ranked endpoint.
    The returned answers form a DAG whose RC set contains *surviving*.

    Raises:
        InvalidParameterError: if *surviving* is not an independent set of
            the question graph (then no orientation can keep all of them).
    """
    survivors = set(surviving)
    ranked = list(survivors) + [e for e in elements if e not in survivors]
    rank = {element: position for position, element in enumerate(ranked)}
    answers = []
    for a, b in questions:
        edge = normalize_question(a, b)
        if edge[0] in survivors and edge[1] in survivors:
            raise InvalidParameterError(
                f"{sorted(survivors)} is not independent: edge {edge} "
                f"connects two of its members"
            )
        winner, loser = (edge[0], edge[1]) if rank[edge[0]] < rank[edge[1]] else (
            edge[1],
            edge[0],
        )
        answers.append(Answer(winner=winner, loser=loser))
    return answers


def expected_remaining_candidates(
    elements: Iterable[Element], questions: Iterable[Question]
) -> float:
    """``E[R]`` of the question graph under a uniform history (Lemma 4).

    Under a uniform history the probability that an element with degree
    ``d`` wins all of its comparisons is ``1 / (d + 1)``, so by linearity of
    expectation ``E[R] = sum_v 1 / (d_v + 1)``.
    """
    adjacency = _adjacency(elements, questions)
    return sum(1.0 / (len(neighbors) + 1) for neighbors in adjacency.values())


def degree_sequence(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Tuple[int, ...]:
    """Sorted (descending) degree sequence of the question graph."""
    adjacency = _adjacency(elements, questions)
    return tuple(sorted((len(n) for n in adjacency.values()), reverse=True))
