"""Generalized Hopf links: closed forms and the explicit Seifert oracle.

H_{m,n} consists of m parallel disk-framed copies of one Hopf-link component
and n of the other: copies on the same side are pairwise unlinked, each
cross pair links once.  With every component its own color, the signature has
the closed form

    sigma_{H_{m,n}}(v, u) = defect(v) * defect(u)

on the full character torus; reversing a copy's orientation conjugates its
coordinate.  The nullity on the open torus depends only on whether the angle
sums are integers.

The module also builds the explicit bicolored Seifert family of the standard
C-complex (m disks clasping n disks), whose mn generators are cyclically
indexed and linearly dependent: the assembled form computes the signature of
H_{m,n} by brute force, which is the oracle pinning every sign convention in
the splice calculus.  Its kernel overshoots the nullity by the excess
m + n - 1 (basis=False), a constant kernel LaurentMatrix.inertia splits off.
certify_spectrum proves the eigenvalues of hopf_spectrum at every open
character at once, by one Laurent-polynomial identity on the integer C_e of H(t).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, List

from .errors import BoundaryCharacter
from .splice import SigFn
from .torus import Angle, Character, defect1, ind, is_open, weighted_sum

if TYPE_CHECKING:  # imported where used: a closed-form eval loads no ccomplex or cyclotomic
    from .ccomplex import SeifertFamily


def hopf_signature(v: Character, u: Character) -> int:
    """sigma_{H_{m,n}}(v, u) = defect(v) * defect(u) on the full torus; the side
    lengths are m = len(v) and n = len(u).  A zero first factor, as for one
    angle, leaves the second uncomputed."""
    return (first := defect1(v)) and first * defect1(u)


def hopf_nullity(eta: Character, zeta: Character) -> int:
    """Nullity of H_{m,n} on the open torus: a function of the angle sums only.
    The side lengths are m = len(eta) and n = len(zeta)."""
    m, n = len(eta), len(zeta)
    if m < 1 or n < 1:
        raise ValueError("need at least one copy on each side")
    if not (is_open(eta) and is_open(zeta)):
        raise BoundaryCharacter("nullity closed form holds on the open torus only")
    a = _integral(eta)
    b = _integral(zeta)
    if a and b:
        return m + n - 3
    if b:
        return m - 1
    if a:
        return n - 1
    return 0


def _integral(omega: Character) -> bool:
    """True when the angle sum Log omega is an integer."""
    s, den = weighted_sum((1,) * len(omega), omega)
    return s % den == 0


def sigma_k(k: int, x: Angle) -> int:
    """ind(k * Log x) - k: the per-copy factor of the Hopf signature."""
    return ind(k * x.numerator, x.denominator) - k


def hopf_sig_fn(m: int, n: int) -> SigFn:
    """The closed form as an evaluator of arity m+n, total on the torus.

    Its nullity is the closed form.  Every color is one component; copies on
    one side link 0 times, across the sides once.  So color 0, the first
    copy of the m-side, has linking vector (0, ..., 0, 1, ..., 1).
    """
    if m < 1 or n < 1:
        raise ValueError("need at least one copy on each side")
    return SigFn(m + n, lambda omega: hopf_signature(omega[:m], omega[m:]),
                 lk=lambda i, j: int((i < m) != (j < m)), counts=(1,) * (m + n),
                 label=f"hopf({m},{n})", nullity=lambda omega: hopf_nullity(omega[:m], omega[m:]))


# ---------------------------------------------------------------------------
# the Seifert oracle
# ---------------------------------------------------------------------------

def unlink_family(components: int) -> SeifertFamily:
    """n disjoint disks: no homology, signature identically zero.

    The complex is disconnected for n > 1, so the (empty) form's kernel does
    not compute the link's nullity; basis stays False.
    """
    from .ccomplex import SeifertFamily
    return SeifertFamily(1, {(1,): [], (-1,): []}, basis=False,
                         label=f"unlink({components})")


def hopf_seifert_family(m: int, n: int) -> SeifertFamily:
    """The bicolored Seifert family of the standard C-complex of H_{m,n}.

    Color 0 holds m components, color 1 holds n, and linking the class total m*n.
    Generators alpha_{ij} are indexed by Z/m x Z/n (one per clasp); for a shift
    direction (eps, dlt) the form takes the value -eps*dlt on (alpha_ij, alpha_ij)
    and on (alpha_ij, alpha_{i-eps,j+dlt}), and +eps*dlt on (alpha_ij, alpha_{i-eps,j})
    and (alpha_ij, alpha_{i,j+dlt}).  For m or n in {1, 2} the cyclic indices collide
    and the contributions add up; at m = n = 1 everything cancels to the zero 1x1 form.
    """
    from .ccomplex import SeifertFamily
    if m < 1 or n < 1:
        raise ValueError("need at least one copy on each side")
    g = m * n

    def index(i: int, j: int) -> int:
        return (i % m) * n + (j % n)

    forms = {}
    for eps in (1, -1):
        for dlt in (1, -1):
            mat = [[0] * g for _ in range(g)]
            for i in range(m):
                for j in range(n):
                    row = mat[index(i, j)]
                    row[index(i, j)] += -eps * dlt
                    row[index(i - eps, j)] += eps * dlt
                    row[index(i, j + dlt)] += eps * dlt
                    row[index(i - eps, j + dlt)] += -eps * dlt
            forms[(eps, dlt)] = mat
    return SeifertFamily(
        2, forms, basis=False,
        boundary={(0,): unlink_family(m), (1,): unlink_family(n)},
        linking=[[0, m * n], [m * n, 0]],
        label=f"hopf_family({m},{n})")


# lambda(x, y) / i = (1 - 1/x)(1 - 1/y)(1 - xy) on the unit torus: ((power of x, of y), coeff)
_LAMBDA_TERMS = (((1, 0), 1), ((0, 1), 1), ((-1, 0), -1), ((0, -1), -1), ((-1, -1), 1),
                 ((1, 1), -1))


def hopf_spectrum(m: int, n: int, eta: Angle, zeta: Angle) -> List[float]:
    """Eigenvalues of the assembled bicolored form at (eta, ..., zeta, ...).

    The mn eigenvalues are the products lambda(eta, xi_m^i) *
    lambda(zeta, conj(xi_n^j)) over i in Z/m, j in Z/n, with xi_k the
    primitive k-th root of unity: m + n factors, computed once each.
    Returned ascending; certify_spectrum proves them exactly.
    """
    if eta.is_unit() or zeta.is_unit():
        raise BoundaryCharacter("spectrum closed form holds on the open torus only")

    def lam(x: Fraction, y: Fraction) -> float:
        # Re(i e^(2 pi i a)) = -sin(2 pi a); a mod 1 lets fsum give 0.0 at x, y or xy = 1
        return math.fsum(-c * math.sin(2 * math.pi * ((p * x + q * y) % 1))
                         for (p, q), c in _LAMBDA_TERMS)
    left = [lam(eta.value, Fraction(i, m)) for i in range(m)]
    right = [lam(zeta.value, Fraction(-j, n)) for j in range(n)]
    return sorted(x * y for x in left for y in right)


def _polynomial(terms) -> frozenset:
    """The sum of (key, coefficient) terms, as the set of its nonzero terms."""
    total: Counter = Counter()
    for key, c in terms:
        total[key] += c
    return frozenset(term for term in total.items() if term[1])


def certify_spectrum(family: SeifertFamily, m: int, n: int) -> bool:
    """Whether family's H(t), generator i*n + j for (i, j) in Z/m x Z/n, is proved to
    have the eigenvalues of hopf_spectrum at every open character.  No form is
    evaluated: with s = xi_L, L = lcm(m, n), and Fourier vector v_r = s^(L/m*a*i + L/n*b*j),
    every row r must give one conj(v_r)(H(t) v)_r = sum_(e,c) C_e[r][c] t^e s^(v_c - v_r)
    mod s^L - 1, and these mu_v the products lambda(t0, s^(L/m*i)) * lambda(t1, s^(-L/n*j))
    as a multiset.  s = xi_L, t = omega is a ring map, so H(omega) v = mu_v(omega) v for a basis v.
    """
    h, L = family.laurent, math.lcm(m, n)
    cells = [(i, j) for i in range(m) for j in range(n)]

    def mus(v: List[int]) -> frozenset:  # the conj(v_r)(H(t) v)_r of all rows r
        return frozenset(_polynomial(((e, (v[c] - v[r]) % L), k) for e, coef in h.coeffs.items()
                                     for c, k in enumerate(coef[r]))
                         for r in range(h.size))
    want = Counter(frozenset({_polynomial(  # each product, the one value of every row
        (((p, p2), (L // m * i * q - L // n * j * q2) % L), -c * c2)  # i * i = -1
        for (p, q), c in _LAMBDA_TERMS for (p2, q2), c2 in _LAMBDA_TERMS)}) for i, j in cells)
    return h.size == m * n and want == Counter(
        mus([L // m * a * i + L // n * b * j for i, j in cells]) for a, b in cells)
