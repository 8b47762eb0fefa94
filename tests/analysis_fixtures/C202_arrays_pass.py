"""C202 passing fixture: a cost-table payload of geometry-free columns and
numpy arrays (pickled as dtype, shape and bytes)."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Column:
    gap_um: float | None
    sinks: int


@dataclass(frozen=True, eq=False)
class Costs:
    columns: tuple[Column, ...]
    capacities: np.ndarray
    exact: np.ndarray
