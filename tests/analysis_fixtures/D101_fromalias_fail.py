"""D101 failing fixture: ``from numpy import random as npr`` binds the
numpy RNG module, so ``npr.rand`` is the legacy module-global stream."""

from numpy import random as npr


def draw() -> float:
    return npr.rand()
