"""Generalized Hopf links: closed forms and the explicit Seifert oracle.

H_{m,n} consists of m parallel disk-framed copies of one Hopf-link component
and n of the other: copies on the same side are pairwise unlinked, each
cross pair links once.  With every component its own color, the signature has
the closed form

    sigma_{H_{m,n}}(v, u) = defect(v) * defect(u)

on the full character torus (orientation-reversed components contribute
weight -1 in the defect instead of +1).  The nullity on the open torus
depends only on whether the angle sums are integers.

The module also builds the explicit bicolored Seifert family of the standard
C-complex (m disks clasping n disks), whose mn generators are cyclically
indexed and linearly dependent: the assembled form computes the signature of
H_{m,n} by brute force, which is the oracle pinning every sign convention in
the splice calculus.  Its kernel overshoots the nullity by the excess
m + n - 1 of the generating family, so it carries basis=False.  That excess
is a constant kernel of every form, split off before elimination: the
inertia comes from (m - 1)(n - 1) of the mn rows (LaurentMatrix.inertia).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BoundaryCharacter
from .splice import SigFn
from .torus import Angle, Character, defect, ind, is_open, weighted_sum

if TYPE_CHECKING:  # imported where used: a closed-form eval loads no ccomplex or cyclotomic
    from .ccomplex import SeifertFamily


class HopfSpec(NamedTuple):
    """m and n parallel copies, with per-copy orientations (+1/-1)."""

    m: int
    n: int
    nu: Tuple[int, ...] = ()
    lam: Tuple[int, ...] = ()

    @classmethod
    def make(cls, m: int, n: int,
             nu: Optional[Sequence[int]] = None,
             lam: Optional[Sequence[int]] = None) -> "HopfSpec":
        if m < 0 or n < 0:
            raise ValueError("component counts must be non-negative")
        nu = tuple(nu) if nu is not None else (1,) * m
        lam = tuple(lam) if lam is not None else (1,) * n
        if len(nu) != m or len(lam) != n:
            raise ValueError("orientation vectors must match the copy counts")
        if any(x not in (1, -1) for x in nu + lam):
            raise ValueError("orientations are +1 or -1")
        return cls(m, n, nu, lam)


def hopf_signature(spec: HopfSpec, v: Character, u: Character) -> int:
    """sigma_{H_{m,n}}(v, u) = defect_nu(v) * defect_lam(u), on the full torus."""
    if len(v) != spec.m or len(u) != spec.n:
        raise ValueError(
            f"characters of lengths {len(v)},{len(u)} do not match H_{{{spec.m},{spec.n}}}")
    return defect(spec.nu, v) * defect(spec.lam, u)


def hopf_nullity(m: int, n: int, eta: Character, zeta: Character) -> int:
    """Nullity of H_{m,n} on the open torus: a function of the angle sums only."""
    if m < 1 or n < 1:
        raise ValueError("need at least one copy on each side")
    if len(eta) != m or len(zeta) != n:
        raise ValueError("character lengths do not match the copy counts")
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

    Its nullity is the closed form on the open torus, None off it.

    For m >= 1 the first copy of the m-side is the distinguished component:
    it is unlinked from the other m-1 parallel copies and links each of the
    n opposite copies once, so the linking vector is (0, ..., 0, 1, ..., 1).
    For m = 0 there is no linking vector.
    """
    spec = HopfSpec.make(m, n)

    def fn(omega: Character) -> int:
        return hopf_signature(spec, omega[:m], omega[m:])

    def nullity(omega: Character) -> Optional[int]:
        return hopf_nullity(m, n, omega[:m], omega[m:]) if is_open(omega) else None

    linking = (0,) * (m - 1) + (1,) * n if m else None
    return SigFn(m + n, fn, linking=linking, label=f"hopf({m},{n})", nullity=nullity)


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

    Generators alpha_{ij} are indexed by Z/m x Z/n (one per clasp); for a
    shift direction (eps, dlt) the form takes the value -eps*dlt on
    (alpha_ij, alpha_ij) and on (alpha_ij, alpha_{i-eps,j+dlt}), and +eps*dlt
    on (alpha_ij, alpha_{i-eps,j}) and (alpha_ij, alpha_{i,j+dlt}).  For
    m or n in {1, 2} the cyclic indices collide and the contributions add up;
    at m = n = 1 everything cancels to the zero 1x1 form.
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


def _lambda_terms(q: Rational, a: Rational, b: Rational) -> Tuple[Tuple[Rational, int], ...]:
    """lambda(x, y) = i(1 - conj x)(1 - conj y)(1 - xy) = i(x + y - conj x - conj y
    + conj(xy) - xy) as (exponent, coefficient) terms in z, for x = z^a, y = z^b and
    i = z^q: exact at z = zeta_L (certify_spectrum), in turns at z = exp(2 pi i)."""
    return ((q + a, 1), (q + b, 1), (q - a, -1), (q - b, -1), (q - a - b, 1), (q + a + b, -1))


def hopf_spectrum(m: int, n: int, eta: Angle, zeta: Angle) -> List[float]:
    """Eigenvalues of the assembled bicolored form at (eta, ..., zeta, ...).

    The mn eigenvalues are the products lambda(eta, xi_m^i) *
    lambda(zeta, conj(xi_n^j)) over i in Z/m, j in Z/n, with xi_k the
    primitive k-th root of unity: m + n factors, computed once each.
    Returned ascending; certify_spectrum proves them exactly.
    """
    if eta.is_unit() or zeta.is_unit():
        raise BoundaryCharacter("spectrum closed form holds on the open torus only")
    quarter = Fraction(1, 4)  # i = z^quarter at z = exp(2 pi i): exponents in turns

    def lam(x: Fraction, y: Fraction) -> float:
        # fsum cancels equal terms exactly: at x, y or xy = 1 the factor is 0.0
        return math.fsum(c * math.cos(2 * math.pi * e) for e, c in _lambda_terms(quarter, x, y))
    left = [lam(eta.value, Fraction(i, m)) for i in range(m)]
    right = [lam(zeta.value, Fraction(-j, n)) for j in range(n)]
    return sorted(x * y for x in left for y in right)


def certify_spectrum(family: SeifertFamily, m: int, n: int,
                     characters: Sequence[Tuple[Angle, Angle]]) -> Optional[int]:
    """The index of the first (eta, zeta) where family's form H, generators indexed
    by Z/m x Z/n, is not proved in Q(zeta_L) to have the eigenvalues of hopf_spectrum.

    Each Fourier vector v(i, j) = xi_m^(a*i) * xi_n^(b*j), a basis of C^(mn), is an
    eigenvector when conj(v_r) * (H*v)_r is one value mu for every r, and the mu
    must be the predicted products as a multiset.  One proof serves a Galois orbit,
    as in LaurentMatrix.inertia: u permutes the xi, and i^u = +-i squares away.
    """
    from .cyclotomic import _level, _steps
    L = math.lcm(4, m, n, *(a.denominator for omega in characters for a in omega))
    lv, proved, q = _level(L), {}, L // 4  # i = zeta_L^q
    cells = [(i, j) for i in range(m) for j in range(n)]
    fourier = [[L // m * a * i + L // n * b * j for i, j in cells] for a, b in cells]
    for at, omega in enumerate(characters):
        rep = lv.orbit_rep(_steps(omega, L))[0]
        if rep not in proved:
            rows = family.assemble(tuple(Angle.from_ratio(k, L) for k in rep), L)._mat
            den = math.lcm(*(d for row in rows for d, _ in row))
            mus = [{lv.reduce(den, [(k + e - w, c * (den // d)) for (d, vec), e in zip(row, v)
                                    for k, c in enumerate(vec) if c])
                    for row, w in zip(rows, v)} for v in fourier]
            left = [lv.reduce(1, _lambda_terms(q, rep[0], L // m * i)) for i in range(m)]
            right = [lv.reduce(1, _lambda_terms(q, rep[1], -(L // n) * j)) for j in range(n)]
            want = sorted(lv.mul(x, y) for x in left for y in right)
            proved[rep] = (len(rows) == m * n and all(len(mu) == 1 for mu in mus)
                           and sorted(mu.pop() for mu in mus) == want)
        if not proved[rep]:
            return at
    return None
