"""D101 failing fixture: ``import numpy.random`` binds ``numpy``, so
``numpy.random.rand`` is the legacy module-global numpy stream."""

import numpy.random


def draw() -> float:
    return numpy.random.rand()
