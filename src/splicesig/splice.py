"""Combinators on colored signature functions: the splice calculus.

The splice of two links glues their exteriors along tubular neighbourhoods of
distinguished components, trading meridian for longitude.  One theorem gives
its signature, the correction being a generalized Hopf link's signature:

    sigma_L(w', w'') = sigma_1(u'', w') + sigma_2(u', w'') + defect_l'(w') * defect_l''(w'')

where u* = (w*)^(l*) raises the character to the linking vector of the
distinguished component.  It needs the guard (u', u'') != (1, 1) where each
link keeps another color: a unit coordinate deletes its color, and a link
whose other colors are all deleted is a knot there.  The splice of the
standard generators reproducing the Hopf closed form pins the correction
sign to +.  Cables and satellites are splices with a base link: H_{1,nu}
first for nu copies, the pattern plus the axis of its solid torus for a satellite.

Evaluators are represented by SigFn: a callable on characters with an arity
and its link structure (a record of splicesig.links), which every combinator
derives in bulk from its operands'.  Combinators call their operands through
SigFn.fn, so a character's number of colors is checked once.  Evaluation is
lazy and exact.

The formulas hold on the open torus.  Off it a unit coordinate deletes its
color: the signature is the sublink's (with_boundary), a collapse subtracts
no linking number of a deleted color, and there is no nullity (SigFn.nullity).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import BoundaryCharacter, GuardViolated
from .torus import Angle, Character, char_power, defect, is_open, linking_problem

if TYPE_CHECKING:  # loaded where first read: a leaf's evaluation needs no link record
    from .links import LinkData, Row


class SigFn:
    """A signature evaluator Character^arity -> int, with its link structure.

    The evaluator is total on its domain and raises BoundaryCharacter (or
    another typed error) outside of it; it never returns garbage.  The
    wrapped callable enforces the domain, not this class.  links (Links or
    Glued) is given whole or a color at a time: lk the symmetric linking matrix
    (ValueError where torus.linking_problem refuses it) and counts, None where
    unknown; a number restated for them must equal a known one.  linking is
    color 0's row where color 0 is one component and the row is known.
    nullity is the colored nullity on the open torus, None without a source.
    """

    def __init__(self, arity: int, fn: Callable[[Character], int], *,
                 lk: Optional[Sequence[Sequence[Optional[int]]]] = None,
                 counts: Optional[Sequence[Optional[int]]] = None,
                 links: Optional[LinkData] = None, label: Optional[str] = None,
                 nullity: Optional[Callable[[Character], Optional[int]]] = None):
        if links is None:  # a color at a time, made a record where first read
            counts = (None,) * arity if counts is None else tuple(counts)
            if arity < 0 or len(counts) != arity:
                raise ValueError(f"arity {arity} with {len(counts)} component counts")
            if lk is not None and (problem := linking_problem(lk, arity)):
                raise ValueError(f"{label or 'evaluator'}: {problem}")
        self.arity = arity
        self.fn = fn
        self._links, self._given = links, (lk, counts)
        self.label = label
        self._nullity = nullity or (lambda omega: None)

    @property
    def links(self) -> LinkData:
        if self._links is None:
            from .links import given
            self._links = given(*self._given)
        return self._links

    @property
    def counts(self) -> Tuple[Optional[int], ...]:
        return self.links.color_counts()

    def lk(self, i: int, j: int) -> Optional[int]:
        """How colors i and j link, i != j; None where unknown."""
        return self.links.at(i, j)

    def _vector(self) -> Optional[Tuple[Row, LinkData]]:
        """Row 0 and the other colors' link structure, where color 0 is one
        component and its row is known; None otherwise."""
        from .links import known
        if self.arity:
            row, rest, count = self.links.peel(0)
            if count == 1 and known(row):
                return row, rest
        return None

    @property
    def linking(self) -> Optional[Tuple[int, ...]]:
        from .links import expand
        vector = self._vector()
        return None if vector is None else expand(vector[0])

    def _colors(self, omega: Character) -> Character:
        omega = tuple(omega)
        if len(omega) != self.arity:
            raise ValueError(
                f"character has {len(omega)} colors, {self.label or 'evaluator'} expects {self.arity}")
        return omega

    def __call__(self, omega: Character) -> int:
        return self.fn(self._colors(omega))

    def nullity(self, omega: Character) -> Optional[int]:
        """The colored nullity at omega; None off the open torus or without one."""
        omega = self._colors(omega)
        return self._nullity(omega) if is_open(omega) else None

    def __repr__(self):
        return f"SigFn({self.label or 'sig'}, arity={self.arity}, linking={self.linking})"


def distinguish(f: SigFn, lam: Sequence[int], role: str) -> SigFn:
    """f with color 0 one component that links the other colors lam times:
    ValueError naming f (as role) when f has no colors, when lam has the
    wrong length, when color 0 is known to hold several components, or when
    lam contradicts a number f knows.  Where f has none, the result takes lam's."""
    from .links import Links, expand, glue, row
    lam = tuple(operator.index(x) for x in lam)
    name = f"{role} {f.label or '?'}"
    if not f.arity:
        raise ValueError(f"{name} has no colors, so no component to distinguish")
    if len(lam) != f.arity - 1:
        raise ValueError(f"{name}: linking vector has length {len(lam)}, expected {f.arity - 1}")
    first, rest, count = f.links.peel(0)
    if count not in (None, 1):
        raise ValueError(f"{name}: color 0 holds {count} components, none of them distinguished")
    first = expand(first)
    if any(known not in (None, given) for known, given in zip(first, lam)):
        raise ValueError(f"{name} has linking vector {list(first)}, the document gives {list(lam)}")
    links = glue(Links((1,), (1,), ((0,),)), rest, row(((1, 1),)), row((1, x) for x in lam))
    return SigFn(f.arity, f.fn, links=links, label=f.label, nullity=f._nullity)


def zero_fn(arity: int, label: str = "zero") -> SigFn:
    """The identically-zero signature function (e.g. unlinks, H_{1,n})."""
    return SigFn(arity, lambda omega: 0, label=label)


def with_boundary(arity: int, core: Callable[[Character], int],
                  boundary: Optional[Mapping[Tuple[int, ...], SigFn]] = None, *,
                  label: Optional[str] = None, **data) -> SigFn:
    """Extend an open-torus evaluator to boundary characters by color deletion.

    A unit coordinate does not contribute: the signature at a character with
    some omega_i = 1 equals the signature of the sublink with color i removed.
    All unit colors are deleted at once and the evaluation is dispatched to
    boundary[kept], an evaluator of the len(kept) surviving colors (ValueError
    otherwise).  If every color is deleted the link is empty and the
    signature is 0.  A missing sublink entry raises BoundaryCharacter: the
    data cannot be reconstructed from the full-link Seifert data alone.  data
    are SigFn's lk, counts and nullity; core and nullity see the open torus only.
    """
    table: Dict[Tuple[int, ...], SigFn] = dict(boundary or {})
    if bad := [kept for kept, sub in table.items() if sub.arity != len(kept)]:
        raise ValueError(f"{label or 'evaluator'}: wrong sublink arity for kept colors {bad}")

    def fn(omega: Character) -> int:
        kept = tuple(i for i, a in enumerate(omega) if not a.is_unit())
        if len(kept) == arity:
            return core(omega)
        if not kept:
            return 0
        sub = table.get(kept)
        if sub is None:
            raise BoundaryCharacter(
                f"{label or 'evaluator'}: no sublink data for kept colors {kept}")
        return sub.fn(tuple(omega[i] for i in kept))

    return SigFn(arity, fn, label=label, **data)


# ---------------------------------------------------------------------------
# the splice theorem and its relatives
# ---------------------------------------------------------------------------

def splice(f1: SigFn, f2: SigFn, *, label: Optional[str] = None,
           roles: Tuple[str, str] = ("splice operand 1", "splice operand 2")) -> SigFn:
    """Splice two links along their distinguished components.

    Both operands need a linking vector (ValueError naming the operand by its
    role otherwise).  The resulting evaluator takes (w', w'') with w' the
    colors of the first operand and w'' of the second.  Raises GuardViolated
    when both raised characters u' = (w')^l' and u'' = (w'')^l'' are 1 and
    each operand keeps another color (a coordinate that is not 1): the
    formula acquires an extra correction term there and is not computed by
    this calculus.  An operand whose other colors are all deleted is a knot
    at that character, and a knot (vector ()) in either place raises to 1
    and is unguarded: first, it gives sigma_1(w^l'') + sigma_2(1, w).  The
    colors keep their link data, and L'_i (l'_i meridians of K', glued to
    longitudes of K'') links L''_j l'_i*l''_j times.
    """
    from .links import expand, glue
    vectors = []
    for f, role in zip((f1, f2), roles):
        if (vector := f._vector()) is None:
            raise ValueError(f"{role} {f.label or '?'} has no linking vector: "
                             "color 0 is not a distinguished component")
        vectors.append(vector)
    (row1, rest1), (row2, rest2) = vectors
    mu1, mu2 = f1.arity - 1, f2.arity - 1
    colors: list = []  # the vectors a color at a time, once, where the splice is evaluated

    def fn(omega: Character) -> int:
        if not colors:
            colors.extend(map(expand, (row1, row2)))
        lam1, lam2 = colors
        om1, om2 = omega[:mu1], omega[mu1:]
        up1 = char_power(om1, lam1)
        up2 = char_power(om2, lam2)
        if (up1.is_unit() and up2.is_unit() and any(not a.is_unit() for a in om1)
                and any(not a.is_unit() for a in om2)):
            raise GuardViolated(
                "both raised characters equal 1; splice additivity does not apply")
        first = defect(lam1, om1)  # 0 for one color, and then the second is not computed
        return (f1.fn((up2,) + om1) + f2.fn((up1,) + om2)
                + (first and first * defect(lam2, om2)))

    return SigFn(mu1 + mu2, fn, links=glue(rest1, rest2, row1, row2),
                 label=label or f"splice({f1.label or '?'}, {f2.label or '?'})")


def splice_knot(knot: SigFn, f2: SigFn) -> SigFn:
    """Splice a knot into f2's distinguished slot: splice(knot, f2), which is
    sigma_knot(w^l'') + sigma_2(1, w), unguarded.  A knot is one color of one component."""
    return splice(distinguish(knot, (), "splice_knot operand 1"), f2,
                  label=f"splice_knot({knot.label or '?'}, {f2.label or '?'})",
                  roles=("splice_knot operand 1", "splice_knot operand 2"))


def lt_splice(f1: SigFn, f2: SigFn, xi: Angle) -> int:
    """Univariate signature of a splice of two (1,1)-colored links, the
    Levine-Tristram collapse of splice(f1, f2), whose colors link l'*l'' times:
    sigma(xi) = f1(xi^l'', xi) + f2(xi^l', xi) - l'*l'' + defect*defect,
    refused (the splice guard) where xi != 1 and xi^gcd(l', l'') = 1."""
    if f1.arity != 2 or f2.arity != 2:
        raise ValueError("operands must be (1,1)-colored: arity 2")
    return to_levine_tristram(splice(f1, f2))((xi,))


def cable_parallel(f: SigFn, nu: int) -> SigFn:
    """Replace the distinguished component by nu parallel copies, one color each.

    f needs a linking vector l.  This is the splice of H_{1,nu}, whose
    signature is 0, with f: with pi the product of the copy coordinates,
    sigma(z, w) = f(pi, w) + defect(z) * defect_l(w), guarded by
    (w^l, pi) != (1, 1) where some copy and some color of w are not 1.  The
    copies come first, link each other 0 times and L_j l_j times.
    """
    nu = operator.index(nu)
    if nu < 1:
        raise ValueError("need at least one parallel copy")
    from .hopf import hopf_sig_fn
    return splice(hopf_sig_fn(1, nu), f, label=f"cable({f.label or '?'}, {nu})",
                  roles=("cable base", "cable_parallel operand"))


def merge_colors(f: SigFn, lk_last_two: int) -> SigFn:
    """Merge the last two colors into one.

    sigma_merged(w_1..w_mu) = f(w_1..w_mu, w_mu) - lk, where lk is the total
    linking number between the two merged color classes; at w_mu = 1 the
    merged color is deleted and lk is not subtracted.  Where f knows that
    number, lk must equal it (ValueError otherwise).  The merged color's row
    and count add the two colors', an unknown count as 1 (a lower bound); so
    a merge into color 0 leaves no distinguished component.
    """
    if f.arity < 2:
        raise ValueError("need two colors to merge")
    from .links import Links, entry, glue, row, trim
    lk_last_two = operator.index(lk_last_two)
    last, rest, count = f.links.peel(-1)
    other_row, rest, other = rest.peel(-1)
    if (known := entry(last, f.arity - 2)) not in (None, lk_last_two):
        raise ValueError(f"merge operand {f.label or '?'} links its two colors "
                         f"{known} times, not {lk_last_two}")

    def fn(omega: Character) -> int:
        value = f.fn(omega + (omega[-1],))
        return value if omega[-1].is_unit() else value - lk_last_two

    merged = Links((1,), ((count or 1) + (other or 1),), ((0,),))
    links = glue(rest, merged, trim(last, -1) + other_row, row(((1, 1),)))  # the rows added
    return SigFn(f.arity - 1, fn, links=links,
                 label=f"merge({f.label or '?'}, {lk_last_two})")


def satellite(sig_companion: SigFn, sig_pattern: SigFn, q: int) -> SigFn:
    """Satellite operation on knots: pattern k with winding number q in a
    solid torus, companion K.  This is the knot splice of K with k plus the
    axis, which links k q times and is read only at 1, where it is deleted:
    sigma(w) = sig_companion(w^q) + sig_pattern(w).  The result is a knot.
    """
    if sig_companion.arity != 1 or sig_pattern.arity != 1:
        raise ValueError("satellite operands are 1-colored evaluators")
    companion = distinguish(sig_companion, (), "satellite companion")
    pattern = distinguish(sig_pattern, (), "satellite pattern")
    q = operator.index(q)
    axis = SigFn(2, lambda omega: pattern.fn(omega[1:]), lk=((0, q), (q, 0)), counts=(1, 1))
    label = f"satellite({sig_companion.label or 'K'}, {sig_pattern.label or 'k'}, {q})"
    return splice(companion, axis, label=label, roles=("satellite companion", "satellite axis"))


def to_levine_tristram(f: SigFn) -> SigFn:
    """Collapse all colors to one: the classical univariate signature.

    Iterated color merging subtracts the linking number of every merged pair,
    so sigma(xi) = f(xi, ..., xi) - sum_{i<j} lk(L_i, L_j) for xi != 1; at
    xi = 1 every color is deleted and nothing is subtracted.  The linking
    numbers, which the Seifert forms do not determine, are f's own, so f must
    know them all (ValueError otherwise, and for no colors).  The one color
    holds every component: of two colors or more, it has no distinguished one.
    """
    mu = f.arity
    if not mu:
        raise ValueError(f"{f.label or '?'} has no colors to collapse to one")
    if (total := f.links.total()) is None:
        raise ValueError(f"{f.label or '?'} has no linking matrix: "
                         "the linking numbers of its colors are not all known")
    counts = f.counts
    count = counts[0] if mu == 1 else sum(c or 1 for c in counts)
    return SigFn(1, lambda omega: f.fn((omega[0],) * mu) - (0 if omega[0].is_unit() else total),
                 counts=(count,), label=f"lt({f.label or '?'})")
