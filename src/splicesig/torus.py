"""Exact rational points on the character torus.

A character with mu colors is a tuple (omega_1, ..., omega_mu) of unit complex
numbers omega_j = exp(2*pi*i*theta_j).  Everything here works with the angles
theta_j as exact rationals in [0, 1), so membership tests ("is this coordinate
equal to 1?", "is this angle sum an integer?") are decidable.

Conventions:

* Log maps a single coordinate to its angle in [0, 1) and extends to tuples by
  summing the angles as actual rationals (NOT mod 1), so Log of a mu-tuple lies
  in [0, mu).
* ind(x) = floor(x) - floor(-x); equivalently 2*floor(x) + 1 away from the
  integers and 2*x on them.  This is the jump-averaged staircase that all the
  closed signature formulas are written against.
* The defect of a character omega with respect to an integer weight vector
  lam is

      defect(lam, omega) = ind(sum_j lam_j * theta_j) - sum_j lam_j * ind(theta_j).

  It vanishes on tuples of length 0 or 1 and measures the failure of ind to be
  additive; products of two defects are exactly the correction terms in the
  splice formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]


class Angle:
    """An exact angle theta in [0, 1), i.e. a point exp(2*pi*i*theta) of T^1.

    Construction reduces mod 1, so Angle(Fraction(9, 8)) == Angle(Fraction(1, 8)).
    """

    __slots__ = ("value",)

    def __init__(self, value: RationalLike):
        v = Fraction(value)
        object.__setattr__(self, "value", v - math.floor(v))

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("Angle is immutable")

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def is_unit(self) -> bool:
        """True when the coordinate is 1, i.e. theta = 0."""
        return self.value == 0

    def conjugate(self) -> "Angle":
        return Angle(-self.value)

    def __mul__(self, k: int) -> "Angle":
        """The power omega^k, i.e. k*theta mod 1."""
        return Angle(self.value * k)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Angle) and self.value == other.value

    def __hash__(self):
        return hash(("Angle", self.value))

    def __repr__(self):
        return f"Angle({self.value})"

    def __str__(self):
        return str(self.value)

    def to_complex(self) -> complex:
        return complex(math.cos(2 * math.pi * self.value), math.sin(2 * math.pi * self.value))


UNIT = Angle(0)

#: A character is a tuple of angles; the empty tuple is the unique point of T^0.
Character = tuple  # tuple[Angle, ...]


def angle(value: RationalLike) -> Angle:
    """Convenience constructor accepting ints, Fractions or strings like '3/8'."""
    return Angle(Fraction(value))


def character(spec: Union[str, Iterable[RationalLike]]) -> Character:
    """Build a character from 'a/b,c/d,...' or an iterable of rationals."""
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",")] if spec.strip() else []
        return tuple(Angle(Fraction(p)) for p in parts)
    return tuple(a if isinstance(a, Angle) else Angle(Fraction(a)) for a in spec)


def serialize_character(omega: Character) -> list:
    """Angles as 'num/den' strings (the wire format used by the CLI and JSON)."""
    return [str(a.value) for a in omega]


def parse_character(items: Sequence[str]) -> Character:
    return tuple(Angle(Fraction(s)) for s in items)


def conjugate_character(omega: Character) -> Character:
    return tuple(a.conjugate() for a in omega)


def delete_color(omega: Character, i: int) -> Character:
    return omega[:i] + omega[i + 1:]


def insert_unit(omega: Character, i: int) -> Character:
    return omega[:i] + (UNIT,) + omega[i:]


def is_open(omega: Character) -> bool:
    """True when no coordinate equals 1."""
    return all(not a.is_unit() for a in omega)


def ind(x: Union[int, Fraction]) -> int:
    """floor(x) - floor(-x): 2*floor(x)+1 off the integers, 2*x on them."""
    x = Fraction(x)
    return math.floor(x) - math.floor(-x)


def log_sum(omega: Character) -> Fraction:
    """Log of the tuple: the angle sum as a rational in [0, mu)."""
    return sum((a.value for a in omega), Fraction(0))


def char_power(omega: Character, lam: Sequence[int]) -> Angle:
    """The single coordinate omega^lam = exp(2*pi*i * sum_j lam_j theta_j).

    For the empty character this is 1 (the unique point of T^0).
    """
    if len(omega) != len(lam):
        raise ValueError(f"character has {len(omega)} colors, weight vector has {len(lam)}")
    return Angle(sum((l * a.value for a, l in zip(omega, lam)), Fraction(0)))


def defect(lam: Sequence[int], omega: Character) -> int:
    """ind(sum lam_j theta_j) - sum lam_j ind(theta_j).

    Zero whenever the tuple has length 0 or 1, odd under conjugation, invariant
    under simultaneous permutation of (lam, omega), and unchanged by appending
    a unit coordinate or a conjugate pair (eta, conj(eta)) with weight-1 slots.
    """
    if len(omega) != len(lam):
        raise ValueError(f"character has {len(omega)} colors, weight vector has {len(lam)}")
    total = sum((l * a.value for a, l in zip(omega, lam)), Fraction(0))
    return ind(total) - sum(l * ind(a.value) for a, l in zip(omega, lam))


def defect1(omega: Character) -> int:
    """The defect with all weights equal to 1."""
    return defect((1,) * len(omega), omega)
