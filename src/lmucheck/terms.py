"""Second names for `lmu` objects, kept only for the benchmark.

A fixed-point term is an `lmu` formula, and the library and its tests use
`lmu`'s names for it. The benchmark under `perfbench/` still imports the
names below, and each is the `lmu` object itself. This module goes when the
benchmark moves to `lmu`'s names; nothing else may import it.
"""

from .lmu import (
    Join as TJoin,
    Lmu as Term,
    Meet as TMeet,
    Mu as TMu,
    Nu as TNu,
    OPlus as TOPlus,
    OTimes as TOTimes,
    Scalar as TScalar,
    Var as TVar,
    constant as tconst,
    render_lmu as render_term,
)

__all__ = [
    "Term",
    "TVar",
    "TScalar",
    "TJoin",
    "TMeet",
    "TOPlus",
    "TOTimes",
    "TMu",
    "TNu",
    "tconst",
    "render_term",
]
