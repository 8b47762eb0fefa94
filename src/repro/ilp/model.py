"""Dense-array MILP form shared by both solver backends.

The per-tile PIL-Fill models (:mod:`repro.pilfill.ilp1`,
:mod:`repro.pilfill.ilp2`, :mod:`repro.pilfill.budgeted`) are built
straight into these arrays by index arithmetic, and both the bundled
branch-and-bound (:mod:`repro.ilp.branchbound`) and the scipy HiGHS
backend (:mod:`repro.ilp.scipy_backend`) read nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CompiledModel:
    """min c·x + c0 s.t. A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub,
    integrality flags per variable."""

    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool per variable

    def rounded(self, x: np.ndarray) -> np.ndarray:
        """``x`` with the integer variables rounded to whole numbers."""
        return np.where(self.integer, np.round(x), x)
