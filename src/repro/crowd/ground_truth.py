"""The hidden true order of the collection (Section 2.1).

The paper assumes "a true unknown permutation for the elements of C ... a
strict order without equalities".  :class:`GroundTruth` holds that
permutation and acts as the comparison oracle: in the paper's MTurk
experiments worker answers were replaced with ground-truth answers exactly
like this ("we simulate error-free workers by ignoring their answers").
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.types import Answer, Element


class GroundTruth:
    """A strict total order over elements ``0 .. n-1``.

    Args:
        order: the elements from best (the MAX) to worst.  Must be a
            permutation of ``0 .. len(order) - 1``.
    """

    def __init__(self, order: Sequence[Element]) -> None:
        order = list(order)
        if sorted(order) != list(range(len(order))):
            raise InvalidParameterError(
                "order must be a permutation of 0..n-1 (best to worst)"
            )
        self._order: List[Element] = order
        self._rank = {element: position for position, element in enumerate(order)}

    @classmethod
    def random(cls, n_elements: int, rng: np.random.Generator) -> "GroundTruth":
        """A uniformly random hidden permutation over ``n_elements``."""
        if n_elements < 1:
            raise InvalidParameterError(f"n_elements must be >= 1: {n_elements}")
        order = list(range(n_elements))
        rng.shuffle(order)
        return cls(order)

    @classmethod
    def identity(cls, n_elements: int) -> "GroundTruth":
        """The order in which element 0 is the MAX, 1 the runner-up, etc."""
        return cls(list(range(n_elements)))

    @property
    def n_elements(self) -> int:
        return len(self._order)

    @property
    def max_element(self) -> Element:
        """The true MAX of the collection."""
        return self._order[0]

    def rank(self, element: Element) -> int:
        """Position of *element* in the true order (0 = best)."""
        try:
            return self._rank[element]
        except KeyError:
            raise InvalidParameterError(f"unknown element {element}") from None

    @cached_property
    def _ranks(self) -> np.ndarray:
        """``_ranks[element]`` is the element's position (built on first use)."""
        ranks = np.empty(len(self._order), dtype=np.int64)
        ranks[self._order] = np.arange(len(self._order))
        return ranks

    def ranks_of(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank`: the true position of every element."""
        if elements.size and (
            elements.min() < 0 or elements.max() >= len(self._order)
        ):
            unknown = elements[(elements < 0) | (elements >= len(self._order))]
            raise InvalidParameterError(f"unknown element {int(unknown[0])}")
        return self._ranks[elements]

    def better(self, a: Element, b: Element) -> Element:
        """The true winner of a comparison between *a* and *b*."""
        if a == b:
            raise InvalidParameterError(f"cannot compare element {a} to itself")
        return a if self.rank(a) < self.rank(b) else b

    def answer(self, a: Element, b: Element) -> Answer:
        """The error-free answer to the question between *a* and *b*."""
        winner = self.better(a, b)
        loser = b if winner == a else a
        return Answer(winner=winner, loser=loser)

    def rank_gap(self, a: Element, b: Element) -> int:
        """Absolute rank distance between two elements.

        Distance-sensitive error models use this: elements close in the
        true order are harder for humans to tell apart.
        """
        return abs(self.rank(a) - self.rank(b))

    def __repr__(self) -> str:
        return f"GroundTruth(n={self.n_elements}, max={self.max_element})"
