"""Exception types shared across the package, and the wording of per-game failures.

In an online run only the one-configuration path raises them; a grid cell at fault runs on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .data import GameRecord


class ZeroProbabilityError(ValueError):
    """A model assigned probability zero to an outcome that actually occurred.

    Raised instead of returning an infinite log score / log likelihood so the
    caller learns which game and outcome broke the evaluation.
    """


class ConvergenceError(RuntimeError):
    """Batch fitting diverged or the data admit no finite optimum."""


class SchemaError(ValueError):
    """A CSV input is missing required columns."""


class RowError(ValueError):
    """A CSV data row could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def game_label(games: Sequence[GameRecord], i: int) -> str:
    """How every message names game i of ``games``: ``game i (HOME vs AWAY, DATE)``."""
    g = games[i]
    return f"game {i} ({g.home_id} vs {g.away_id}, {g.date})"


def zero_probability(outcome: str, games=None, i: int = 0) -> ZeroProbabilityError:
    """The error for an observed ``outcome`` given probability 0, at game i of ``games``."""
    message = f"model assigns probability 0 to observed outcome {outcome!r}"
    return ZeroProbabilityError(message if games is None else f"{game_label(games, i)}: {message}")


def non_finite_difference(v: float, games=None, i: int = 0) -> ValueError:
    """The error for a non-finite rating difference v, at game i of ``games``."""
    message = f"rating difference must be finite, got {v}"
    return ValueError(message if games is None else f"{game_label(games, i)}: {message}")


def non_finite_rating(player: str, r: float, games: Sequence[GameRecord], i: int) -> ValueError:
    """The error for ``player``'s rating r, left non-finite by game i of ``games``."""
    return ValueError(f"{game_label(games, i)}: rating of {player!r} must be finite, got {r}")
