"""Model families with exact closed-form answers: a route to the right value
that is independent of every checker, and that scales to any size.

Gambler's ruin with two bets ("ruin-N"): states `s0 .. sN`, where `s0` and
`sN` are absorbing (a self-loop of weight 1) and each `si` with `0 < i < N`
has two distributions, an unfair bet `{s(i-1): 2/3, s(i+1): 1/3}` and a fair
one `{s(i-1): 1/2, s(i+1): 1/2}`. The ruin-N DTMC keeps only the unfair bet.
`G` is 1 at `sN` only. At `si`:

| formula | model | value |
| --- | --- | --- |
| `mu X. (G \\/ <>X)` | ruin-N | `i/N` |
| `mu X. (G \\/ []X)` | ruin-N | `(2^i - 1)/(2^N - 1)` |
| `mu X. (G \\/ <>X)` | ruin-N DTMC | `(2^i - 1)/(2^N - 1)` |

`<>` picks the better bet, and the fair bet reaches `sN` with probability
`i/N`; `[]` picks the worse one, and on the unfair bet the chance of reaching
`sN` solves `p_i = 2/3 p_(i-1) + 1/3 p_(i+1)`, whose solution with `p_0 = 0`
and `p_N = 1` is `(2^i - 1)/(2^N - 1)`.

The Knuth-Yao die (Knuth and Yao 1976): a fair coin simulates a fair die.
The flip states `s0 .. s6` each move to one of two successors with
probability 1/2: `s0` to `s1`/`s2`, `s1` to `s3`/`s4`, `s2` to `s5`/`s6`,
`s3` to `s1`/`d1`, `s4` to `d2`/`d3`, `s5` to `d4`/`d5` and `s6` to
`d6`/`s2`. The faces `d1 .. d6` are absorbing, and `Dk` is 1 at `dk` only.
The model is a DTMC, and from `s0` it reaches each face with probability
exactly 1/6.
"""

from __future__ import annotations

from fractions import Fraction

from lmucheck import lmu
from lmucheck.model import Distribution, Interpretation, Pnts

REACH = lmu.Mu("X", lmu.Join(lmu.Prop("G"), lmu.Diamond(lmu.Var("X"))))  # mu X. (G \/ <>X)
REACH_ALL = lmu.Mu("X", lmu.Join(lmu.Prop("G"), lmu.Box(lmu.Var("X"))))  # mu X. (G \/ []X)
UNFAIR = (Fraction(2, 3), Fraction(1, 3))  # (down, up)
FAIR = (Fraction(1, 2), Fraction(1, 2))


def _stay(s: str) -> tuple[Distribution]:
    """The one distribution of an absorbing state."""
    return (Distribution(((s, Fraction(1)),)),)


def ruin(n: int, bets=(UNFAIR, FAIR)) -> tuple[Pnts, Interpretation]:
    """The ruin-N model with the given bets per inner state, and `G`."""
    states = tuple(f"s{i}" for i in range(n + 1))
    order = {s: i for i, s in enumerate(states)}
    transitions = {states[0]: _stay(states[0]), states[n]: _stay(states[n])}
    for i in range(1, n):
        transitions[states[i]] = tuple(
            Distribution.from_dict({states[i - 1]: down, states[i + 1]: up}, order)
            for down, up in bets
        )
    return Pnts(states, transitions), Interpretation({"G": {states[n]: Fraction(1)}})


def ruin_cases(n: int) -> dict[str, tuple[Pnts, Interpretation, lmu.Lmu, dict[str, Fraction]]]:
    """The three rows of the table at size n: name -> (model, labels,
    formula, exact value per state)."""
    fair = {f"s{i}": Fraction(i, n) for i in range(n + 1)}
    unfair = {f"s{i}": Fraction(2**i - 1, 2**n - 1) for i in range(n + 1)}
    two_bets, labels = ruin(n)
    dtmc, _ = ruin(n, bets=(UNFAIR,))
    return {
        "<>": (two_bets, labels, REACH, fair),
        "[]": (two_bets, labels, REACH_ALL, unfair),
        "dtmc": (dtmc, labels, REACH, unfair),
    }


def knuth_yao() -> tuple[Pnts, Interpretation]:
    """The Knuth-Yao die and its face labels `D1 .. D6`."""
    flips = {  # flip state -> its two successors
        "s0": ("s1", "s2"),
        "s1": ("s3", "s4"),
        "s2": ("s5", "s6"),
        "s3": ("s1", "d1"),
        "s4": ("d2", "d3"),
        "s5": ("d4", "d5"),
        "s6": ("d6", "s2"),
    }
    faces = tuple(f"d{k}" for k in range(1, 7))
    states = (*flips, *faces)
    order = {s: i for i, s in enumerate(states)}
    half = Fraction(1, 2)
    transitions = {
        s: (Distribution.from_dict({a: half, b: half}, order),) for s, (a, b) in flips.items()
    }
    transitions.update((d, _stay(d)) for d in faces)
    labels = {f"D{k}": {d: Fraction(1)} for k, d in enumerate(faces, 1)}
    return Pnts(states, transitions), Interpretation(labels)
