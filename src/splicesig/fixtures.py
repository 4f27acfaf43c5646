"""Worked examples: exact Hermitian matrices for three small torus links.

The chain here is the (2,4)-torus link, the (4,2)-cable over the unknot with
the core retained, and the (3,6)-torus link, which is the splice of the first
two along the distinguished components.  Each is given as the integer Seifert
forms theta^eps of a C-complex, compiled to H(t) by LaurentMatrix.from_forms,
as a signature evaluator wired with the boundary data of its sublinks, and as
a piecewise-constant table of the known signature values on the open torus.
Together they exercise the splice calculus end to end: signatures, walls,
boundary characters and the guard.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Tuple

from .cyclotomic import LaurentMatrix
from .splice import SigFn, with_boundary, zero_fn
from .torus import Character, weighted_sum

_LEAF_CACHE = 1024  # signatures kept per fixture leaf


# (arity, {eps: theta^eps}) per fixture; a direction left out has the zero form
FORMS: Dict[str, Tuple[int, Dict[Tuple[int, ...], list]]] = {
    "torus(2,4)": (2, {(1, 1): [[-1]], (-1, -1): [[-1]]}),
    "cable(4,2)+core": (3, {
        (1, 1, 1): [[-1, 0], [1, -1]], (1, -1, -1): [[-1, 1], [0, 0]],
        (-1, 1, 1): [[-1, 0], [1, 0]], (-1, -1, -1): [[-1, 1], [0, -1]]}),
    "torus(3,6)": (3, {
        (1, 1, 1): [[-1, 0, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]],
        (1, 1, -1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, -1]],
        (1, -1, 1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0]],
        (1, -1, -1): [[-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 1, 0]],
        (-1, 1, 1): [[-1, 0, 0, 0], [1, 0, 0, -1], [0, 0, 0, 1], [0, 0, 0, 0]],
        (-1, 1, -1): [[0, 0, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1], [0, 0, 0, 0]],
        (-1, -1, 1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
        (-1, -1, -1): [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]}),
}


def torus24_matrix() -> LaurentMatrix:
    """C-complex form of the (2,4)-torus link, colors (t0, t1).

    Both components are unknotted (1,2)-curves with linking number 2; the
    complex has a single homology generator, so the forms are 1x1.
    """
    return LaurentMatrix.from_forms(*FORMS["torus(2,4)"])


def cable42_matrix() -> LaurentMatrix:
    """C-complex form of the (4,2)-cable over the unknot with core retained.

    Colors (t0, t1, t2): t0 is the core, t1 and t2 the two parallel
    (2,1)-strands.  lk(core, strand) = 1, lk(strand, strand) = 2.
    """
    return LaurentMatrix.from_forms(*FORMS["cable(4,2)+core"])


def torus36_matrix() -> LaurentMatrix:
    """C-complex form of the (3,6)-torus link, one color per component.

    The splice of the previous two links along their distinguished
    components; three unknotted strands with pairwise linking number 2.
    """
    return LaurentMatrix.from_forms(*FORMS["torus(3,6)"])


def _matrix_sig(matrix: LaurentMatrix) -> Callable[[Character], int]:
    @lru_cache(maxsize=_LEAF_CACHE)
    def sig(omega: Character) -> int:
        pos, neg, _ = matrix.inertia(omega)
        return pos - neg

    return sig


# ---------------------------------------------------------------------------
# signature evaluators with boundary data
# ---------------------------------------------------------------------------

def torus24_sig() -> SigFn:
    """Signature of the 2-colored (2,4)-torus link, first color distinguished.

    Both sublinks are unknots, so deleting either color gives the zero
    function.
    """
    return with_boundary(
        2, _matrix_sig(torus24_matrix()),
        {(0,): zero_fn(1, "unknot"), (1,): zero_fn(1, "unknot")},
        linking=(2,), label="torus(2,4)")


def cable42_sig() -> SigFn:
    """Signature of the cored (4,2)-cable, core color distinguished.

    Deleting the core leaves the two strands, which form a (2,4)-torus link
    again; deleting one strand leaves core + strand, a Hopf link (signature
    zero); single colors are unknots.
    """
    two_strands = torus24_sig()
    return with_boundary(
        3, _matrix_sig(cable42_matrix()),
        {
            (1, 2): two_strands,
            (0, 1): zero_fn(2, "hopf(1,1)"),
            (0, 2): zero_fn(2, "hopf(1,1)"),
            (0,): zero_fn(1, "unknot"),
            (1,): zero_fn(1, "unknot"),
            (2,): zero_fn(1, "unknot"),
        },
        linking=(1, 1), label="cable(4,2)+core")


def torus36_sig() -> SigFn:
    """Signature of the 3-colored (3,6)-torus link.

    Any two of the three strands form a (2,4)-torus link; singles are
    unknots.
    """
    pair = torus24_sig()
    return with_boundary(
        3, _matrix_sig(torus36_matrix()),
        {
            (0, 1): pair,
            (0, 2): pair,
            (1, 2): pair,
            (0,): zero_fn(1, "unknot"),
            (1,): zero_fn(1, "unknot"),
            (2,): zero_fn(1, "unknot"),
        },
        label="torus(3,6)")


# ---------------------------------------------------------------------------
# known values: piecewise-constant tables on the open torus
# ---------------------------------------------------------------------------

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


TABLES: Dict[str, PiecewiseTable] = {
    "torus(2,4)": PiecewiseTable(
        (1, 1),
        (Fraction(1, 2), Fraction(3, 2)),
        (1, 0, -1, 0, 1)),
    "cable(4,2)+core": PiecewiseTable(
        (1, 2, 2),
        (Fraction(1), Fraction(2), Fraction(3), Fraction(4)),
        (2, 1, 0, -1, -2, -1, 0, 1, 2)),
    "torus(3,6)": PiecewiseTable(
        (1, 1, 1),
        (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)),
        (4, 2, 0, -1, -2, -1, 0, 2, 4)),
}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# the canonical names are the keys of TABLES and _BUILDERS; these are aliases
_CANONICAL: Dict[str, str] = {
    "referee-k'l'": "torus(2,4)",
    "referee-kl1": "torus(2,4)",
    "torus-2-4": "torus(2,4)",
    "referee-k''l''": "cable(4,2)+core",
    "referee-kl2": "cable(4,2)+core",
    "cable-4-2": "cable(4,2)+core",
    "referee-l": "torus(3,6)",
    "torus-3-6": "torus(3,6)",
}

_BUILDERS: Dict[str, Tuple[Callable[[], LaurentMatrix], Callable[[], SigFn]]] = {
    "torus(2,4)": (torus24_matrix, torus24_sig),
    "cable(4,2)+core": (cable42_matrix, cable42_sig),
    "torus(3,6)": (torus36_matrix, torus36_sig),
}


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("′", "'").replace("″", "''")
    key = _CANONICAL.get(key, key)
    if key not in TABLES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return key


def fixture_names() -> Tuple[str, ...]:
    return tuple(sorted(TABLES))


def fixture_matrix(name: str) -> LaurentMatrix:
    return _BUILDERS[_canonical(name)][0]()


def fixture_sig(name: str) -> SigFn:
    return _BUILDERS[_canonical(name)][1]()


def fixture_table(name: str) -> PiecewiseTable:
    return TABLES[_canonical(name)]
