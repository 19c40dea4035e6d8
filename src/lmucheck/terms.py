"""Fixed-point terms denoting monotone functions [0,1]^n -> [0,1].

A term is a formula of `lmu` from its modality-free, proposition-free
fragment: variables, scalar multiplication by a rational in [0, 1], min/max
(TMeet/TJoin), truncated sum and product (TOPlus/TOTimes), and the two
fixed-point binders. Free variables are allowed. There is no constant
constructor; `tconst(q)` is the scalar sugar `q*(nu x. x)`. Binders may
shadow (the evaluator scopes variables lexically), which the state
translation exploits. This module only names that fragment: every binding
below is the `lmu` node class or function itself.
"""

from .lmu import (
    ONE as T_ONE,
    ZERO as T_ZERO,
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
    free_name_map,
    free_variables as term_free_variables,
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
    "T_ONE",
    "T_ZERO",
    "tconst",
    "free_name_map",
    "term_free_variables",
    "render_term",
]
