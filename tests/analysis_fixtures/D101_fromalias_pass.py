"""D101 passing fixture: the same alias, drawing from a seeded
generator."""

from numpy import random as npr


def draw(seed: int) -> float:
    return npr.default_rng(seed).random()
