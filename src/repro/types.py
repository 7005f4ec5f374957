"""Shared value types and type aliases.

Elements of the input collection are represented as integers ``0..n-1``.
The *identity* of an element carries no order information: the true order is
held separately by :class:`repro.crowd.ground_truth.GroundTruth`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Tuple

import numpy as np

#: An element of the input collection.
Element = int

#: An unordered pairwise comparison question between two elements.
#: By convention questions are normalized so that ``question[0] < question[1]``.
Question = Tuple[Element, Element]


def normalize_question(a: Element, b: Element) -> Question:
    """Return the canonical ``(min, max)`` form of a question between *a*, *b*.

    Raises:
        ValueError: if ``a == b`` (an element cannot be compared to itself).
    """
    if a == b:
        raise ValueError(f"cannot form a comparison question between {a} and itself")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Answer:
    """The resolved outcome of one pairwise comparison.

    Attributes:
        winner: the element judged greater.
        loser: the element judged smaller.
    """

    winner: Element
    loser: Element

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ValueError("an answer must involve two distinct elements")

    @property
    def question(self) -> Question:
        """The canonical question this answer resolves."""
        return normalize_question(self.winner, self.loser)


class ColumnarValue:
    """Value equality for a dataclass whose fields include NumPy arrays:
    equal when every field is, arrays compared element-wise."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)  # type: ignore[arg-type]
        )

    __hash__ = None  # type: ignore[assignment]


class AnswerColumns(Sequence):
    """A read-only sequence of :class:`Answer` s stored as two element arrays.

    Rounds travel through the platform, the Reliable Worker Layer and the
    scheduler as parallel ``winners``/``losers`` integer arrays; an
    :class:`Answer` object is built only when an item is read, so
    ``len()`` is O(1) and a consumer that works on the arrays never pays
    for per-answer objects.  Equal to any tuple or list holding the same
    answers in the same order.
    """

    __slots__ = ("winners", "losers")

    def __init__(self, winners: np.ndarray, losers: np.ndarray) -> None:
        self.winners = winners
        self.losers = losers

    @classmethod
    def from_answers(cls, answers: Iterable[Answer]) -> "AnswerColumns":
        """Columns holding *answers* in iteration order."""
        pairs = [(answer.winner, answer.loser) for answer in answers]
        table = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(table[:, 0], table[:, 1])

    def __len__(self) -> int:
        return len(self.winners)

    def __getitem__(self, index: int) -> Answer:
        return Answer(int(self.winners[index]), int(self.losers[index]))

    def __iter__(self) -> Iterator[Answer]:
        for winner, loser in zip(self.winners.tolist(), self.losers.tolist()):
            yield Answer(winner, loser)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnswerColumns):
            return np.array_equal(self.winners, other.winners) and (
                np.array_equal(self.losers, other.losers)
            )
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"AnswerColumns({list(self)!r})"
