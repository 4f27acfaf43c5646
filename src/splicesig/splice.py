"""Combinators on colored signature functions: the splice calculus.

The splice of two links glues their exteriors along tubular neighbourhoods of
distinguished components, trading meridian for longitude.  One theorem gives
its signature, the correction being a generalized Hopf link's signature:

    sigma_L(w', w'') = sigma_1(u'', w') + sigma_2(u', w'') + defect_l'(w') * defect_l''(w'')

where u* = (w*)^(l*) raises the character to the linking vector of the
distinguished component.  It needs the guard (u', u'') != (1, 1) unless the
first link is a knot, where u' = 1.  The splice of the standard generators
reproducing the Hopf closed form pins the correction sign to +.  Cables and
satellites are splices with a base link: H_{1,nu} for nu parallel copies,
the pattern plus the axis of its solid torus for a satellite.

Evaluators are represented by SigFn: a plain callable on characters with an
arity and, when color 0 is a distinguished component, its linking vector.
Combinators call their operands through SigFn.fn, so a character's number of
colors is checked once, where it enters.  Evaluation is lazy and exact.

The formulas hold on the open torus.  Off it a unit coordinate deletes its
color: the signature is the sublink's (with_boundary), a collapse subtracts
no linking number of a deleted color, and there is no nullity (SigFn.nullity).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import BoundaryCharacter, GuardViolated
from .torus import Angle, Character, char_power, defect, is_open, linking_problem

class SigFn:
    """A signature evaluator Character^arity -> int.

    The evaluator is total on its domain and raises BoundaryCharacter (or
    another typed error) outside of it; it never returns garbage.  The
    wrapped callable enforces the domain, not this class.  linking, when
    color 0 is a distinguished component K, is its linking vector
    (lk(K, L_1), ..., lk(K, L_{arity-1})) with the other colors; else None.
    nullity, when the evaluator's source provides one, maps a character of
    the open torus to the colored nullity there, or to None where that source
    cannot give it; off the open torus there is no nullity.
    """

    def __init__(self, arity: int, fn: Callable[[Character], int], *,
                 linking: Optional[Sequence[int]] = None,
                 label: Optional[str] = None,
                 nullity: Optional[Callable[[Character], Optional[int]]] = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if linking is not None:
            linking = tuple(operator.index(x) for x in linking)
            if len(linking) != arity - 1:
                raise ValueError(
                    f"linking vector has length {len(linking)}, expected {arity - 1}")
        self.arity = arity
        self.fn = fn
        self.linking = linking
        self.label = label
        self._nullity = nullity or (lambda omega: None)

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
        name = self.label or "sig"
        return f"SigFn({name}, arity={self.arity}, linking={self.linking})"


def linking_of(f: SigFn, role: str) -> Tuple[int, ...]:
    """f's linking vector; a ValueError naming f (as role) when it has none."""
    if f.linking is None:
        raise ValueError(f"{role} {f.label or '?'} has no linking vector: "
                         "color 0 is not a distinguished component")
    return f.linking


class _Collapse(SigFn):
    """A collapse's evaluator: its one color holds several components."""


def refuse_collapse(f: SigFn, role: str) -> None:
    """ValueError naming f (as role) when f is a collapse, which is no knot."""
    if isinstance(f, _Collapse):
        raise ValueError(f"{role} {f.label or '?'} is a collapse: its one color holds "
                         "several components, none of them distinguished")


def zero_fn(arity: int, label: str = "zero") -> SigFn:
    """The identically-zero signature function (e.g. unlinks, H_{1,n})."""
    return SigFn(arity, lambda omega: 0, label=label)


def with_boundary(arity: int, core: Callable[[Character], int],
                  boundary: Optional[Mapping[Tuple[int, ...], SigFn]] = None, *,
                  linking: Optional[Sequence[int]] = None,
                  label: Optional[str] = None,
                  nullity: Optional[Callable[[Character], Optional[int]]] = None) -> SigFn:
    """Extend an open-torus evaluator to boundary characters by color deletion.

    A unit coordinate does not contribute: the signature at a character with
    some omega_i = 1 equals the signature of the sublink with color i removed.
    All unit colors are deleted at once and the evaluation is dispatched to
    boundary[kept], an evaluator of the len(kept) surviving colors (ValueError
    otherwise).  If every color is deleted the link is empty and the
    signature is 0.  A missing sublink entry raises BoundaryCharacter: the
    data cannot be reconstructed from the full-link Seifert data alone.  core
    and nullity are called on the open torus only.
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

    return SigFn(arity, fn, linking=linking, label=label, nullity=nullity)


# ---------------------------------------------------------------------------
# the splice theorem and its relatives
# ---------------------------------------------------------------------------

def splice(f1: SigFn, f2: SigFn, *, label: Optional[str] = None,
           roles: Tuple[str, str] = ("splice operand 1", "splice operand 2")) -> SigFn:
    """Splice two links along their distinguished components.

    Both operands need a linking vector (ValueError naming the operand by its
    role otherwise).  The resulting evaluator takes (w', w'') with w' the
    colors of the first operand and w'' of the second.  Raises GuardViolated
    when the first operand has other colors and both raised characters
    u' = (w')^l' and u'' = (w'')^l'' are 1: the formula acquires an extra
    correction term there and is not computed by this calculus.  With a knot
    first (vector ()), u' = 1 and the value is the knot-splice form
    sigma_1(w^l'') + sigma_2(1, w).
    """
    lam1, lam2 = linking_of(f1, roles[0]), linking_of(f2, roles[1])
    mu1, mu2 = len(lam1), len(lam2)

    def fn(omega: Character) -> int:
        om1, om2 = omega[:mu1], omega[mu1:]
        up1 = char_power(om1, lam1)
        up2 = char_power(om2, lam2)
        if mu1 and up1.is_unit() and up2.is_unit():
            raise GuardViolated(
                "both raised characters equal 1; splice additivity does not apply")
        return (f1.fn((up2,) + om1) + f2.fn((up1,) + om2)
                + defect(lam1, om1) * defect(lam2, om2))

    label = label or f"splice({f1.label or '?'}, {f2.label or '?'})"
    return SigFn(mu1 + mu2, fn, label=label)


def splice_knot(knot: SigFn, f2: SigFn) -> SigFn:
    """Splice a knot into f2's distinguished slot: splice(knot, f2), which
    is sigma_knot(w^l'') + sigma_2(1, w) with no guard.  A collapse is no knot."""
    if knot.arity != 1:
        raise ValueError("first operand must be a 1-colored evaluator")
    refuse_collapse(knot, "splice_knot operand 1")
    return splice(SigFn(1, knot.fn, linking=(), label=knot.label), f2,
                  label=f"splice_knot({knot.label or '?'}, {f2.label or '?'})",
                  roles=("splice_knot operand 1", "splice_knot operand 2"))


def lt_splice(f1: SigFn, f2: SigFn, xi: Angle) -> int:
    """Univariate signature of a splice of two (1,1)-colored links.

    Both operands have one distinguished component and one other color, and
    l' and l'' are the one entries of their linking vectors.  This is the
    Levine-Tristram collapse of splice: the two colors of splice(f1, f2)
    link l'*l'' times, so

        sigma(xi) = f1(xi^l'', xi) + f2(xi^l', xi) - l'*l'' + defect*defect,

    valid when xi^gcd(l', l'') != 1, that is unless xi^l' = xi^l'' = 1, the
    splice guard.  With l' = l'' = 0 every evaluation raises GuardViolated.
    """
    if f1.arity != 2 or f2.arity != 2:
        raise ValueError("operands must be (1,1)-colored: arity 2")
    (l1,), (l2,) = linking_of(f1, "lt_splice operand 1"), linking_of(f2, "lt_splice operand 2")
    lk = l1 * l2
    return to_levine_tristram(splice(f1, f2), ((0, lk), (lk, 0)))((xi,))


def cable_parallel(f: SigFn, nu: int) -> SigFn:
    """Replace the distinguished component by nu parallel copies, one color each.

    f needs a linking vector l.  This is the splice of f with H_{1,nu}, whose
    signature is 0, with the copies moved to the first nu slots: with pi the
    product of the copy coordinates, sigma(z, w) = f(pi, w) + defect(z) *
    defect_l(w), guarded by (w^l, pi) != (1, 1) unless f is a knot.
    """
    nu = operator.index(nu)
    if nu < 1:
        raise ValueError("need at least one parallel copy")
    base = SigFn(nu + 1, lambda omega: 0, linking=(1,) * nu, label=f"hopf(1,{nu})")
    spliced = splice(f, base, roles=("cable_parallel operand", "cable base"))
    return SigFn(spliced.arity, lambda omega: spliced.fn(omega[nu:] + omega[:nu]),
                 label=f"cable({f.label or '?'}, {nu})")


def merge_colors(f: SigFn, lk_last_two: int) -> SigFn:
    """Merge the last two colors into one.

    sigma_merged(w_1..w_mu) = f(w_1..w_mu, w_mu) - lk, where lk is the total
    linking number between the two merged color classes; at w_mu = 1 the
    merged color is deleted and lk is not subtracted.  When the input's
    linking vector has two entries or more, the merge happens within its
    non-distinguished part and their last two entries add up; merging into
    the distinguished slot leaves the result without a linking vector, and
    lk must be that vector's one entry (ValueError otherwise).  That result
    is a collapse, which has no distinguished component and is refused as a
    splice or satellite operand.
    """
    if f.arity < 2:
        raise ValueError("need two colors to merge")
    lk_last_two = operator.index(lk_last_two)
    if f.arity == 2 and f.linking not in (None, (lk_last_two,)):
        raise ValueError(f"merge operand {f.label or '?'} links its two colors "
                         f"{f.linking[0]} times, not {lk_last_two}")

    def fn(omega: Character) -> int:
        value = f.fn(omega + (omega[-1],))
        return value if omega[-1].is_unit() else value - lk_last_two

    label = f"merge({f.label or '?'}, {lk_last_two})"
    linking = None
    if f.linking is not None and len(f.linking) >= 2:
        linking = f.linking[:-2] + (f.linking[-2] + f.linking[-1],)
    return (_Collapse if f.arity == 2 else SigFn)(f.arity - 1, fn, linking=linking, label=label)


def satellite(sig_companion: SigFn, sig_pattern: SigFn, q: int) -> SigFn:
    """Satellite operation on knots: pattern k with winding number q in a
    solid torus, companion K.  This is the knot splice of K with k plus the
    axis, which links k q times and is read only at 1, where it is deleted:
    sigma(w) = sig_companion(w^q) + sig_pattern(w).  The result is a knot.
    """
    if sig_companion.arity != 1 or sig_pattern.arity != 1:
        raise ValueError("satellite operands are 1-colored evaluators")
    refuse_collapse(sig_companion, "satellite companion")
    refuse_collapse(sig_pattern, "satellite pattern")
    q = operator.index(q)
    axis = SigFn(2, lambda omega: sig_pattern.fn(omega[1:]), linking=(q,))
    spliced = splice_knot(sig_companion, axis)
    label = f"satellite({sig_companion.label or 'K'}, {sig_pattern.label or 'k'}, {q})"
    return SigFn(1, spliced.fn, linking=(), label=label)


def to_levine_tristram(f: SigFn, linking_matrix: Sequence[Sequence[int]]) -> SigFn:
    """Collapse all colors to one: the classical univariate signature.

    Iterated color merging subtracts the linking number of every merged pair,
    so sigma(xi) = f(xi, ..., xi) - sum_{i<j} lk(L_i, L_j) for xi != 1; at
    xi = 1 every color is deleted and nothing is subtracted.  The full linking
    matrix must be supplied, as torus.linking_problem reads it; it is metadata
    the Seifert forms do not determine.  When f has a linking vector, row 0
    less its diagonal entry must equal it.  ValueError otherwise.  With two
    colors or more, or of a collapse, the result is a collapse, which has no
    distinguished component and is refused as a splice or satellite operand.
    """
    mu = f.arity
    linking_matrix = [[operator.index(x) for x in row] for row in linking_matrix]
    if problem := linking_problem(linking_matrix, mu):
        raise ValueError(problem)
    if f.linking is not None and f.linking != tuple(linking_matrix[0][1:]):
        raise ValueError(f"linking matrix row 0 gives {linking_matrix[0][1:]}, "
                         f"{f.label or '?'} has linking vector {list(f.linking)}")
    total = sum(linking_matrix[i][j] for i in range(mu) for j in range(i + 1, mu))

    def fn(omega: Character) -> int:
        value = f.fn((omega[0],) * mu)
        return value if omega[0].is_unit() else value - total

    return (_Collapse if mu > 1 else type(f))(1, fn, label=f"lt({f.label or '?'})")
