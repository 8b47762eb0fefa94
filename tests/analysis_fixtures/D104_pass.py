"""D104 passing fixture: tolerance comparison."""

import math


def is_unit(x: float) -> bool:
    return math.isclose(x, 1.0)
