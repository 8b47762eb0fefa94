"""Solver result types shared by the LP and MILP engines."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class SolveStatus(enum.Enum):
    """Terminal state of a solve.

    The limit statuses are distinct on purpose: ``TIME_LIMIT`` means the
    wall-clock deadline fired (the robust solve layer reacts by degrading
    to a cheaper method, not by retrying), ``ITERATION_LIMIT`` /
    ``NODE_LIMIT`` mean a work budget ran out, and ``NUMERICAL`` means
    the backend hit numerical trouble (HiGHS status 4). ``FAILED`` is the
    catch-all for a backend returning an unclassifiable outcome (e.g. an
    unknown status code, or success without a solution vector).
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    NUMERICAL = "numerical"
    FAILED = "failed"

    @property
    def is_optimal(self) -> bool:
        return self is SolveStatus.OPTIMAL

    @property
    def is_limit(self) -> bool:
        """True for out-of-budget terminations (time/iterations/nodes)."""
        return self in (
            SolveStatus.ITERATION_LIMIT,
            SolveStatus.NODE_LIMIT,
            SolveStatus.TIME_LIMIT,
        )


@dataclass
class LPResult:
    """Raw LP solve outcome in array form."""

    status: SolveStatus
    x: np.ndarray | None
    objective: float
    iterations: int


@dataclass
class SolveResult:
    """MILP solve outcome in array form.

    Attributes:
        status: terminal status.
        x: the solution vector, integer variables rounded to whole
            numbers; ``None`` when the backend returned no point.
        objective: objective value ``c·x + c0`` at the returned point.
        nodes: number of branch-and-bound nodes explored.
        iterations: total simplex iterations across all LP relaxations.
    """

    status: SolveStatus
    x: np.ndarray | None = None
    objective: float = float("nan")
    nodes: int = 0
    iterations: int = 0
