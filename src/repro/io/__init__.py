"""Layout and technology I/O: LEF-lite and DEF-lite text dialects."""

from repro.io.deflite import (
    layout_digest,
    parse_def,
    parse_def_streaming,
    write_def,
    write_def_lines,
)
from repro.io.leflite import parse_lef, write_lef

__all__ = [
    "layout_digest",
    "parse_def",
    "parse_def_streaming",
    "parse_lef",
    "write_def",
    "write_def_lines",
    "write_lef",
]
