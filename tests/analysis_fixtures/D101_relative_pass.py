"""D101 passing fixture: the same call, but ``choice`` comes from a
package-local ``random`` module (a relative import), not the stdlib."""

from .random import choice


def pick(xs: list[int]) -> int:
    return choice(xs)
