"""D102 failing fixture: ``time`` imported from the stdlib ``time``
module reads the wall clock."""

from time import time


def stamp() -> float:
    return time()
