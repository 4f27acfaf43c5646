"""Exact rational points on the character torus.

A character with mu colors is a tuple (omega_1, ..., omega_mu) of unit complex
numbers omega_j = exp(2*pi*i*theta_j).  Everything here works with the angles
theta_j as exact rationals in [0, 1), so membership tests ("is this coordinate
equal to 1?", "is this angle sum an integer?") are decidable.  An angle is
stored as its reduced integer pair num/den with 0 <= num < den, and every
formula below computes on those integers; `Angle.value` builds a Fraction
only for callers that ask for one.

Conventions:

* Log maps a single coordinate to its angle in [0, 1) and extends to tuples by
  summing the angles as actual rationals (NOT mod 1), so Log of a mu-tuple lies
  in [0, mu).
* ind(x) = floor(x) - floor(-x); equivalently 2*floor(x) + 1 away from the
  integers and 2*x on them.  This is the jump-averaged staircase that all the
  closed signature formulas are written against.  For x = n/d with d > 0 it
  is 2*(n // d) + (1 if d does not divide n else 0).
* The defect of a character omega with respect to an integer weight vector
  lam is

      defect(lam, omega) = ind(sum_j lam_j * theta_j) - sum_j lam_j * ind(theta_j).

  It vanishes on tuples of length 0 or 1 and measures the failure of ind to be
  additive; products of two defects are exactly the correction terms in the
  splice formulas.  ind(theta_j) is 1 on every coordinate but a unit, so the
  defect is an integer sum over the common denominator of the angles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

RationalLike = Union[int, str, Fraction]


class Angle:
    """An exact angle theta in [0, 1), i.e. a point exp(2*pi*i*theta) of T^1.

    Stored as the integers numerator/denominator in lowest terms, with
    0 <= numerator < denominator.  Construction reduces mod 1, so
    Angle(Fraction(9, 8)) == Angle("1/8") == Angle(Fraction(2, 16)); `value`
    is the same angle as a Fraction, built when asked for.  A float or a bool
    is refused with TypeError: Angle(0.1) would be its binary approximation.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, value: RationalLike):
        if isinstance(value, (float, bool)):
            raise TypeError(f"angle {value!r} is not exact; use int, Fraction or 'p/q'")
        v = Fraction(value)
        object.__setattr__(self, "numerator", v.numerator % v.denominator)
        object.__setattr__(self, "denominator", v.denominator)

    @staticmethod
    def from_ratio(num: int, den: int) -> "Angle":
        """The angle num/den mod 1, i.e. the point zeta_den^num, for den > 0."""
        g = math.gcd(num, den)
        return _pair(num // g % (den // g), den // g)

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("Angle is immutable")

    def __delattr__(self, name):
        raise AttributeError("Angle is immutable")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def is_unit(self) -> bool:
        """True when the coordinate is 1, i.e. theta = 0."""
        return self.numerator == 0

    def __mul__(self, k: int) -> "Angle":
        """The power omega^k, i.e. k*theta mod 1."""
        return Angle.from_ratio(self.numerator * k, self.denominator)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Angle) and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __repr__(self):
        return f"Angle({self})"

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


def _pair(num: int, den: int) -> Angle:
    """The angle of an already reduced pair 0 <= num < den, gcd(num, den) = 1."""
    a = object.__new__(Angle)
    object.__setattr__(a, "numerator", num)
    object.__setattr__(a, "denominator", den)
    return a


UNIT = Angle(0)

#: A character is a tuple of angles; the empty tuple is the unique point of T^0.
Character = tuple  # tuple[Angle, ...]


def character(spec: Union[str, Iterable[RationalLike]]) -> Character:
    """Build a character from 'a/b,c/d,...' or an iterable of rationals."""
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",")] if spec.strip() else []
        return tuple(Angle(p) for p in parts)
    return tuple(a if isinstance(a, Angle) else Angle(a) for a in spec)


def grid(start: int, order: int, arity: int) -> Iterator[Tuple[Tuple[int, ...], Character]]:
    """Each cell ks of range(start, order)^arity, in lexicographic order, with
    its character ks/order: the one walk of a grid of roots of unity.  The
    angles are built once, none for arity 0, whose one cell is ((), ())."""
    angles = [Angle.from_ratio(k, order) for k in (range(start, order) if arity else ())]
    return zip(product(range(start, order), repeat=arity), product(angles, repeat=arity))


def is_open(omega: Character) -> bool:
    """True when no coordinate equals 1."""
    return all(a.numerator for a in omega)


def ind(x: Union[int, Fraction], den: int = 1) -> int:
    """floor(y) - floor(-y) for y = x / den: 2*floor(y)+1 off the integers,
    2*y on them.  den > 0 lets callers pass y as an integer pair."""
    num, den = x.numerator, x.denominator * den
    return 2 * (num // den) + (num % den != 0)


def weighted_sum(lam: Sequence[int], omega: Character) -> Tuple[int, int]:
    """sum_j lam_j * theta_j as an integer pair (s, den), s / den not reduced:
    den is the lcm of the angle denominators, 1 for the empty character."""
    den = math.lcm(*[a.denominator for a in omega])
    return sum(l * a.numerator * (den // a.denominator) for l, a in zip(lam, omega)), den


def char_power(omega: Character, lam: Sequence[int]) -> Angle:
    """The single coordinate omega^lam = exp(2*pi*i * sum_j lam_j theta_j).

    For the empty character this is 1 (the unique point of T^0).
    """
    if len(omega) != len(lam):
        raise ValueError(f"character has {len(omega)} colors, weight vector has {len(lam)}")
    return Angle.from_ratio(*weighted_sum(lam, omega))


def defect(lam: Sequence[int], omega: Character) -> int:
    """ind(sum lam_j theta_j) - sum lam_j ind(theta_j).

    Zero whenever the tuple has length 0 or 1, odd under conjugation, invariant
    under simultaneous permutation of (lam, omega), and unchanged by appending
    a unit coordinate or a conjugate pair (eta, conj(eta)) with weight-1 slots.
    """
    if len(omega) != len(lam):
        raise ValueError(f"character has {len(omega)} colors, weight vector has {len(lam)}")
    s, den, ones = 0, 1, 0  # sum lam_j theta_j = s / den; ones = sum lam_j ind(theta_j)
    for l, a in zip(lam, omega):
        if den % a.denominator:
            lcm = math.lcm(den, a.denominator)
            s, den = s * (lcm // den), lcm
        if a.numerator:
            s += l * a.numerator * (den // a.denominator)
            ones += l
    return 2 * (s // den) + (s % den != 0) - ones


def defect1(omega: Character) -> int:
    """The defect with all weights equal to 1."""
    return defect((1,) * len(omega), omega)


def linking_problem(rows: Sequence[Sequence[int]], mu: int) -> Optional[str]:
    """What keeps rows from being the linking matrix of a mu-colored link, or
    None: it is mu x mu, no component links itself, and it is symmetric."""
    if len(rows) != mu or any(len(row) != mu for row in rows):
        return f"linking matrix must be {mu}x{mu}"
    if any(rows[i][i] for i in range(mu)):
        return "linking matrix must have zero diagonal"
    if any(rows[i][j] != rows[j][i] for i in range(mu) for j in range(i)):
        return "linking matrix must be symmetric"
