"""C202 failing fixture: the cost-table payload declares its columns as a
type outside the registry (one that carries layout geometry)."""

from dataclasses import dataclass

import numpy as np


class SiteColumn:
    sites: list


@dataclass(frozen=True)
class Column:
    gap_um: float | None
    sinks: int


@dataclass(frozen=True, eq=False)
class Costs:
    columns: tuple[SiteColumn, ...]
    capacities: np.ndarray
    exact: np.ndarray
