"""Worked examples: exact Hermitian matrices for three small torus links.

The chain here is the (2,4)-torus link, the (4,2)-cable over the unknot with
the core retained, and the (3,6)-torus link, which is the splice of the first
two along the distinguished components.  Each is one entry of FIXTURES, held
as data: the integer Seifert forms theta^eps of a C-complex, the linking
matrix of its colors, each one component, the sublink left by each color deletion,
a piecewise-constant table of the known signature values on the open torus,
and its aliases.  fixture_matrix compiles the forms to H(t) with
LaurentMatrix.from_forms; fixture_sig wires that matrix's signature with the
boundary data of its sublinks.  Together they exercise the splice calculus
end to end: signatures, walls, boundary characters and the guard.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Tuple

from .cyclotomic import LaurentMatrix
from .errors import MAX_GRID_CELLS
from .splice import SigFn, with_boundary, zero_fn
from .torus import Character, weighted_sum


class PiecewiseTable(NamedTuple):
    """Signature as a function of a weighted angle sum s = sum w_i * theta_i.

    values lists regions and walls alternately: values[0] is the region
    below walls[0], values[2k+1] the value exactly on walls[k], values[2k+2]
    the region between walls[k] and walls[k+1], and so on.  s ranges over an
    open interval, so the region values at the ends are genuine.
    """

    weights: Tuple[int, ...]
    walls: Tuple[Fraction, ...]
    values: Tuple[int, ...]

    def value(self, omega: Character) -> int:
        s, den = weighted_sum(self.weights, omega)
        for k, wall in enumerate(self.walls):
            # s/den against wall = p/q, both denominators positive
            c = s * wall.denominator - wall.numerator * den
            if c == 0:
                return self.values[2 * k + 1]
            if c < 0:
                return self.values[2 * k]
        return self.values[-1]


class Fixture(NamedTuple):
    """One worked example.  forms maps eps to theta^eps, a direction left out
    being the zero form; lk is the linking matrix of the colors, each one
    component; boundary maps the kept colors of each deletion to another
    fixture's name or to a zero-signature link ("unknot", "hopf(1,1)")."""

    arity: int
    forms: Dict[Tuple[int, ...], list]
    lk: Tuple[Tuple[int, ...], ...]
    boundary: Dict[Tuple[int, ...], str]
    table: PiecewiseTable
    aliases: Tuple[str, ...]


_SINGLES = {(0,): "unknot", (1,): "unknot", (2,): "unknot"}

FIXTURES: Dict[str, Fixture] = {
    # colors (t0, t1), t0 distinguished: both components are unknotted
    # (1,2)-curves with linking number 2; the complex has a single homology
    # generator, so the forms are 1x1.  Both sublinks are unknots.
    "torus(2,4)": Fixture(
        2, {(1, 1): [[-1]], (-1, -1): [[-1]]}, ((0, 2), (2, 0)),
        {(0,): "unknot", (1,): "unknot"},
        PiecewiseTable((1, 1), (Fraction(1, 2), Fraction(3, 2)), (1, 0, -1, 0, 1)),
        ("referee-k'l'", "referee-kl1", "torus-2-4")),
    # colors (t0, t1, t2): t0 the core, distinguished, t1 and t2 the two
    # parallel (2,1)-strands; lk(core, strand) = 1, lk(strand, strand) = 2.
    # Deleting the core leaves the two strands, a (2,4)-torus link again;
    # deleting one strand leaves core + strand, a Hopf link (signature zero).
    "cable(4,2)+core": Fixture(
        3, {(1, 1, 1): [[-1, 0], [1, -1]], (1, -1, -1): [[-1, 1], [0, 0]],
            (-1, 1, 1): [[-1, 0], [1, 0]], (-1, -1, -1): [[-1, 1], [0, -1]]},
        ((0, 1, 1), (1, 0, 2), (1, 2, 0)),
        {(1, 2): "torus(2,4)", (0, 1): "hopf(1,1)", (0, 2): "hopf(1,1)", **_SINGLES},
        PiecewiseTable((1, 2, 2), (Fraction(1), Fraction(2), Fraction(3), Fraction(4)),
                       (2, 1, 0, -1, -2, -1, 0, 1, 2)),
        ("referee-k''l''", "referee-kl2", "cable-4-2")),
    # one color per component: the splice of the previous two links along
    # their distinguished components, three unknotted strands with pairwise
    # linking number 2.  Any two strands form a (2,4)-torus link.
    "torus(3,6)": Fixture(
        3, {(1, 1, 1): [[-1, 0, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]],
            (1, 1, -1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, -1]],
            (1, -1, 1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0]],
            (1, -1, -1): [[-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 1, 0]],
            (-1, 1, 1): [[-1, 0, 0, 0], [1, 0, 0, -1], [0, 0, 0, 1], [0, 0, 0, 0]],
            (-1, 1, -1): [[0, 0, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1], [0, 0, 0, 0]],
            (-1, -1, 1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
            (-1, -1, -1): [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]},
        ((0, 2, 2), (2, 0, 2), (2, 2, 0)),
        {(0, 1): "torus(2,4)", (0, 2): "torus(2,4)", (1, 2): "torus(2,4)", **_SINGLES},
        PiecewiseTable((1, 1, 1), (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)),
                       (4, 2, 0, -1, -2, -1, 0, 2, 4)),
        ("referee-l", "torus-3-6")),
}

_ALIASES = {alias: name for name, fix in FIXTURES.items() for alias in fix.aliases}


def _matrix_sig(matrix: LaurentMatrix) -> Callable[[Character], int]:
    @lru_cache(maxsize=MAX_GRID_CELLS)  # a signature per cell a command evaluates
    def sig(omega: Character) -> int:
        pos, neg, _ = matrix.inertia(omega)
        return pos - neg

    return sig


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("′", "'").replace("″", "''")
    key = _ALIASES.get(key, key)
    if key not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return key


def fixture_names() -> Tuple[str, ...]:
    return tuple(sorted(FIXTURES))


def fixture_matrix(name: str) -> LaurentMatrix:
    fix = FIXTURES[_canonical(name)]
    return LaurentMatrix.from_forms(fix.arity, fix.forms)


def fixture_sig(name: str) -> SigFn:
    """The fixture's signature, each named sublink built once and shared by
    every deletion that leaves it."""
    key = _canonical(name)
    fix = FIXTURES[key]
    subs = {sub: fixture_sig(sub) for sub in dict.fromkeys(fix.boundary.values())
            if sub in FIXTURES}
    boundary = {kept: subs[sub] if sub in subs else zero_fn(len(kept), sub)
                for kept, sub in fix.boundary.items()}
    return with_boundary(fix.arity, _matrix_sig(fixture_matrix(key)), boundary,
                         lk=fix.lk, counts=(1,) * fix.arity, label=key)


def fixture_table(name: str) -> PiecewiseTable:
    return FIXTURES[_canonical(name)].table
