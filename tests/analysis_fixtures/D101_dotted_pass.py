"""D101 passing fixture: the same import, drawing from a seeded
generator."""

import numpy.random


def draw(seed: int) -> float:
    return numpy.random.default_rng(seed).random()
