"""scipy/HiGHS backend for :class:`repro.ilp.model.CompiledModel`, plus
a sparse LP entry point.

:func:`solve_scipy` is the per-tile MILP backend and an independent
cross-check of the bundled branch-and-bound solver in tests.
:func:`solve_lp_arrays` takes an LP with a sparse CSC constraint matrix
and is how the Min-Var budget LP over all tiles reaches HiGHS.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from repro.errors import SolverError
from repro.ilp.model import CompiledModel
from repro.ilp.result import LPResult, SolveResult, SolveStatus
from repro.obs.trace import NULL_TRACER, TracerLike

# HiGHS milp/linprog status codes. Code 1 means "iteration or time limit";
# we disambiguate in :func:`_classify` using whether a time limit was set
# (HiGHS does not tell us which one fired, but we never set an iteration
# limit, so with a deadline configured code 1 can only be the clock).
_SCIPY_STATUS = MappingProxyType(
    {
        0: SolveStatus.OPTIMAL,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
        4: SolveStatus.NUMERICAL,
    }
)


def _classify(raw_status: int, time_limited: bool) -> SolveStatus:
    if raw_status == 1:
        return SolveStatus.TIME_LIMIT if time_limited else SolveStatus.ITERATION_LIMIT
    return _SCIPY_STATUS.get(raw_status, SolveStatus.FAILED)


def _milp(
    time_limit: float | None, **problem: Any
) -> tuple[SolveStatus, np.ndarray | None]:
    """Run ``scipy.optimize.milp`` on ``problem`` and classify its status.

    Returns the status and the solution vector (None when HiGHS returned
    none). Raises :class:`SolverError` when HiGHS claims success without a
    point — never hand NaN to a caller that just checked is_optimal.
    """
    options = {} if time_limit is None else {"time_limit": float(time_limit)}
    res = milp(options=options, **problem)
    status = _classify(res.status, time_limit is not None)
    if res.x is None:
        if status is SolveStatus.OPTIMAL:
            raise SolverError("scipy milp reported success without a solution vector")
        return status, None
    return status, np.asarray(res.x)


def solve_scipy(
    model: CompiledModel,
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> SolveResult:
    """Solve via ``scipy.optimize.milp`` (HiGHS). Continuous models go to
    HiGHS too (milp handles them).

    ``time_limit`` is a wall-clock budget in seconds; when it fires the
    result status is :attr:`SolveStatus.TIME_LIMIT` (with the incumbent, if
    HiGHS found one). ``tracer``, when given, records an ``ilp.scipy``
    span with the variable count and final status.
    """
    trc = tracer if tracer is not None else NULL_TRACER
    constraints = []
    if model.a_ub.size:
        constraints.append(LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq.size:
        constraints.append(LinearConstraint(model.a_eq, model.b_eq, model.b_eq))

    with trc.span("ilp.scipy", vars=model.c.size) as span:
        status, x = _milp(
            time_limit,
            c=model.c,
            constraints=constraints,
            bounds=Bounds(model.lb, model.ub),
            integrality=model.integer.astype(np.int64),
        )
        span.set("status", status.name)
        if x is None:
            return SolveResult(status, None, math.nan, 0, 0)
        objective = float(model.c @ x + model.c0)
        return SolveResult(status, model.rounded(x), objective, 0, 0)


def solve_lp_arrays(
    c: np.ndarray,
    a_ub: csc_array,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> LPResult:
    """Solve the continuous LP ``min c·x s.t. a_ub·x <= b_ub, lb <= x <= ub``
    via ``scipy.optimize.milp`` (HiGHS).

    ``a_ub`` goes to HiGHS as given. A CSC matrix with sorted row indices
    and no explicit zeros is exactly what :func:`solve_scipy` hands HiGHS
    for the same dense rows (``milp`` converts dense matrices with
    ``csc_array``), so a sparse-built LP solves bit-identically to its
    dense twin.
    """
    status, x = _milp(
        None,
        c=c,
        constraints=[LinearConstraint(a_ub, -np.inf, b_ub)],
        bounds=Bounds(lb, ub),
    )
    if x is None:
        return LPResult(status, None, math.nan, 0)
    return LPResult(status, x, float(c @ x), 0)

