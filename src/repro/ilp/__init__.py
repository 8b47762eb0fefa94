"""Integer linear programming substrate.

Models arrive as dense :class:`CompiledModel` arrays (the per-tile
PIL-Fill builders write them directly) and go to one of two
interchangeable engines:

* ``"bundled"`` — the from-scratch two-phase simplex + branch-and-bound
  (the reproduction's substitute for the paper's CPLEX 7.0),
* ``"scipy"`` — HiGHS via ``scipy.optimize.milp``, used for large models
  and as an independent cross-check.

``"auto"`` picks bundled for small models and scipy above
:data:`AUTO_VAR_THRESHOLD` variables. :func:`solve_lp_arrays` is the
sparse LP entry point of the Min-Var budget LP.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.ilp.branchbound import solve_branch_and_bound
from repro.ilp.model import CompiledModel
from repro.ilp.result import LPResult, SolveResult, SolveStatus
from repro.ilp.scipy_backend import solve_lp_arrays, solve_scipy
from repro.ilp.simplex import solve_lp
from repro.obs.trace import TracerLike

#: "auto" switches from the bundled engine to scipy above this many variables.
#: The digest contract holds this value, not speed: the two engines resolve
#: tied optima differently and ``result_digest`` hashes each tile's counts
#: and objective repr, so moving the threshold moves digests. Keep it.
AUTO_VAR_THRESHOLD = 100

#: Accepted values of the ``backend`` argument of :func:`solve`.
ILP_BACKENDS = ("bundled", "scipy", "auto")


def solve(
    model: CompiledModel,
    backend: str = "auto",
    max_nodes: int = 100000,
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> SolveResult:
    """Solve ``model`` with the selected backend.

    Args:
        model: the model to solve.
        backend: ``"bundled"``, ``"scipy"``, or ``"auto"``.
        max_nodes: branch-and-bound node limit (bundled engine only).
        time_limit: wall-clock budget in seconds for the solve; exceeded
            deadlines surface as :attr:`SolveStatus.TIME_LIMIT` on either
            backend.
        tracer: optional telemetry tracer; each backend opens a span
            recording status and solver effort.
    """
    if backend == "auto":
        backend = "bundled" if model.c.size <= AUTO_VAR_THRESHOLD else "scipy"
    if backend == "bundled":
        return solve_branch_and_bound(
            model, max_nodes=max_nodes, time_limit=time_limit, tracer=tracer
        )
    if backend == "scipy":
        return solve_scipy(model, time_limit=time_limit, tracer=tracer)
    raise SolverError(f"unknown backend {backend!r}; expected bundled/scipy/auto")


__all__ = [
    "AUTO_VAR_THRESHOLD",
    "ILP_BACKENDS",
    "CompiledModel",
    "LPResult",
    "SolveResult",
    "SolveStatus",
    "solve",
    "solve_branch_and_bound",
    "solve_lp",
    "solve_lp_arrays",
    "solve_scipy",
]
