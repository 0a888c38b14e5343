"""Grid search over hyperparameters (the Table I harness).

Model-agnostic: the caller supplies an evaluation function mapping a
parameter dict to a score, and :class:`GridSearch` enumerates the
cartesian product, records every result, and reports the best setting.
Used for both the streaming models (prequential F1 as the score) and
the batch baselines (holdout F1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence


class ParameterGrid:
    """Cartesian product over named parameter value lists."""

    def __init__(self, grid: Mapping[str, Sequence[Any]]) -> None:
        if not grid:
            raise ValueError("grid must not be empty")
        for name, values in grid.items():
            if not values:
                raise ValueError(f"parameter {name!r} has no values")
        self.grid = {name: list(values) for name, values in grid.items()}

    def __len__(self) -> int:
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        names = list(self.grid)
        for combo in itertools.product(*(self.grid[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass
class GridResult:
    """One evaluated parameter combination."""

    params: Dict[str, Any]
    score: float


class GridSearch:
    """Exhaustive search over a :class:`ParameterGrid`.

    Args:
        evaluate: maps a parameter dict to a scalar score
            (higher is better).
        grid: the parameter grid.
    """

    def __init__(
        self,
        evaluate: Callable[[Dict[str, Any]], float],
        grid: Mapping[str, Sequence[Any]],
    ) -> None:
        self.evaluate = evaluate
        self.grid = ParameterGrid(grid)
        self.results: List[GridResult] = []

    def run(self) -> GridResult:
        """Evaluate every combination; returns the best result."""
        self.results = []
        for params in self.grid:
            score = self.evaluate(dict(params))
            self.results.append(GridResult(params=params, score=score))
        if not self.results:
            raise RuntimeError("grid search produced no results")
        return self.best

    @property
    def best(self) -> GridResult:
        """Highest-scoring combination evaluated so far."""
        if not self.results:
            raise RuntimeError("run() must be called first")
        return max(self.results, key=lambda r: r.score)
