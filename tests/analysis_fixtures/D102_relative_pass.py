"""D102 passing fixture: the same call, but ``time`` comes from a
package-local ``time`` module (a relative import), not the stdlib."""

from .time import time


def stamp() -> float:
    return time()
