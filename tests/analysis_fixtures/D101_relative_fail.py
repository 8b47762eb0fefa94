"""D101 failing fixture: ``choice`` imported from the stdlib ``random``
module draws from its hidden module-global stream."""

from random import choice


def pick(xs: list[int]) -> int:
    return choice(xs)
