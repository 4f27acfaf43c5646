"""Exact arithmetic over cyclotomic fields and Hermitian inertia.

A character coordinate with angle a/b is the root of unity zeta_N^(N*a/b) once
N is a common multiple of the angle denominators, so every matrix we ever need
to diagonalise has entries in Q(zeta_N).

Canonical pairs.  Both exact types are a positive integer denominator over
integer numerators, in lowest terms, so two values are equal exactly when
their pairs are; there is no epsilon, and arithmetic builds no Fraction.
A field element is (den, vec), vec its numerator in the power basis 1, x,
..., x^(d-1) of Q[x]/(Phi_N), d = deg Phi_N, at x = zeta_N = exp(2*pi*i/N);
CyclotomicNumber is a view on one.  H(t) = sum_e t^e C_e has integer
coefficient matrices C_e, which a LaurentMatrix holds; LaurentMatrix.from_forms
adds each integer Seifert form theta^eps of a C-complex into its C_e, for
families and fixtures alike.

One integer table.  Each level holds pow_rows[k] = x^k mod Phi_N for
0 <= k < N, filled by the multiply-by-x recurrence, which stays integral
because Phi_N is monic.  As x^N = 1, any integer combination sum c_e x^e
reduces by folding each term with pow_rows[e mod N] (_Level.reduce, the only
reduction): a product folds its convolution, conjugation sends x^j to
pow_rows[-j mod N], and a LaurentMatrix folds each entry's terms at a point.
Phi_N itself is built from the distinct primes of N, one exact division each:
Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for each prime p, then
Phi_N(x) = Phi_rad(N)(x^(N/rad(N))).

Inertia.  One exact LDL-style elimination on the upper triangle (_inertia:
exact zero tests, the smallest nonzero diagonal entry as pivot, a congruence
fold when the diagonal is zero), with pivots inverted by an integer extended
Euclid (_Level.inv) and their signs certified in integer fixed point
(_Level.sign).  A LaurentMatrix is H(t) = H(t)* as polynomials or refused
when built, and eliminates once per Galois orbit, keeping MAX_GRID_CELLS
orbits, as many as one command evaluates characters: sigma_u maps the form
and its pivots at omega to those at omega^u (LaurentMatrix.inertia).  It
eliminates only the principal submatrix on the pivot columns of its integer
coefficients, found once per matrix; the other columns are a constant kernel
common to every H(omega).  None is kept
only when every C_e is zero: then the inertia is (0, 0, size), with no orbit.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import MAX_GRID_CELLS, LevelMismatch, NotHermitian
from .torus import Character

# A level's power table holds N rows of up to phi(N) entries each.  Refuse
# levels whose N*phi(N) exceeds this: level 1155 (554 400) is built in under
# a second, level 8633 (about 7.3e7) would exhaust memory.
_TABLE_CAP = 4_000_000


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense ascending coefficient lists)
# ---------------------------------------------------------------------------

def _ptrim(p: List) -> List:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod_exact(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Divide integer polynomials, requiring the division to stay integral.

    Callers divide by monic polynomials, so no rational coefficients appear.
    """
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c, r = divmod(a[-1], b[-1])
        if r != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        _ptrim(a)
    return q, a


def _primes(n: int) -> List[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n: n * prod(1 - 1/p) over the primes of n."""
    out = n
    for p in _primes(n):
        out -= out // p
    return out


def cyclotomic_polynomial(n: int) -> List[int]:
    """Integer coefficients of Phi_n, ascending.

    From Phi_1 = x - 1, each prime p of n gives Phi_mp(x) = Phi_m(x^p) / Phi_m(x)
    (p does not divide m), an exact division by a monic polynomial; this ends
    at the radical r of n, and Phi_n(x) = Phi_r(x^(n/r)).
    """
    phi, r = [-1, 1], 1
    for p in _primes(n):
        spread = [0] * (p * (len(phi) - 1) + 1)
        spread[::p] = phi
        phi, _ = _pdivmod_exact(spread, phi)
        r *= p
    out = [0] * ((n // r) * (len(phi) - 1) + 1)
    out[::n // r] = phi
    return out


# ---------------------------------------------------------------------------
# per-level tables and the canonical pairs (den, vec); zero is (1, 0...0)
# ---------------------------------------------------------------------------

QV = Tuple[int, Tuple[int, ...]]


def _neg(a: QV) -> QV:
    den, vec = a
    return den, tuple(-c for c in vec)


class _Level:
    """The power table and the scalar operations of one level N."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("level must be a positive integer")
        # n > _TABLE_CAP already implies N*phi(N) > _TABLE_CAP; it skips factoring n
        if n > _TABLE_CAP or n * _totient(n) > _TABLE_CAP:
            raise LevelMismatch(f"level {n} exceeds the supported bound: its power "
                                f"table would hold N*phi(N) > {_TABLE_CAP} entries")
        self.n = n
        self.phi = phi = cyclotomic_polynomial(n)
        self.deg = d = len(phi) - 1
        # pow_rows[k] = x^k mod Phi_N for k < N, sparse as (indices, coefficients).
        # x^(k+1) shifts x^k up and replaces x^d by x^d - Phi_N, integral
        # because Phi_N is monic.  Rows share one set of index objects to stay small.
        rows = []
        index = list(range(d))
        vec = [1] + [0] * (d - 1)
        for _ in range(n):
            nz = tuple(i for i, c in zip(index, vec) if c)
            rows.append((nz, tuple(vec[i] for i in nz)))
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                for i in range(d):
                    vec[i] -= top * phi[i]
        self.pow_rows = rows
        self._cos: Dict[int, Tuple[List[int], int]] = {}
        # the units v mod N, ascending, as 1 <= v <= N (so [1] at level 1)
        self.units = [v for v in range(1, n + 1) if math.gcd(v, n) == 1]

    # -- scalar operations -------------------------------------------------

    def reduce(self, den: int, terms: Iterable[Tuple[int, int]]) -> QV:
        """sum(c * x^e for e, c in terms) / den as a canonical pair: each term
        folds in pow_rows[e mod N], and the gcd of den and the numerators
        divides out (zero becomes (1, 0...0)).  The only reduction modulo
        Phi_N and the only place a pair is put in lowest terms."""
        n, d, rows = self.n, self.deg, self.pow_rows
        out = [0] * d
        for e, c in terms:
            if c:
                k = e % n
                if k < d:
                    out[k] += c
                else:
                    idx, row = rows[k]
                    for i, r in zip(idx, row):
                        out[i] += c * r
        g = math.gcd(den, *out)
        return (den // g, tuple(c // g for c in out))

    def add(self, a: QV, b: QV) -> QV:
        (da, va), (db, vb) = a, b
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return self.reduce(da * ma, enumerate(x * ma + y * mb for x, y in zip(va, vb)))

    def mul(self, a: QV, b: QV) -> QV:
        return self.addmul((1, (0,) * self.deg), a, b)

    def addmul(self, acc: QV, a: QV, b: QV) -> QV:
        """acc + a*b: one convolution over the common denominator, one reduction."""
        (dc, vc), (da, va), (db, vb) = acc, a, b
        g = math.gcd(dc, da * db)
        mc, mp = da * db // g, dc // g
        conv = [c * mc for c in vc] + [0] * (self.deg - 1)
        for i, x in enumerate(va):
            if x:
                x *= mp
                for j, y in enumerate(vb):
                    if y:
                        conv[i + j] += x * y
        return self.reduce(dc * mc, enumerate(conv))

    def conj(self, a: QV) -> QV:
        """Complex conjugation: x^j -> x^(-j mod N)."""
        den, vec = a
        return self.reduce(den, ((-j, c) for j, c in enumerate(vec)))

    def is_zero(self, a: QV) -> bool:
        return not any(a[1])

    def size(self, a: QV) -> int:
        return a[0].bit_length() + sum(c.bit_length() for c in a[1])

    def inv(self, a: QV) -> QV:
        """Field inverse by the extended Euclidean algorithm on integer polynomials.

        The remainders r and Bezout cofactors s keep s * vec = r (mod Phi_N).
        Each step cancels the leading term of r0 against r1 by scaling r0 with
        the leading coefficient of r1 instead of dividing by it, does the same
        to s0 against s1, and divides r0 and s0 by their common integer
        content.  Phi_N is irreducible, so r ends at a nonzero constant c, and
        (vec/den)^-1 = den * s / c.
        """
        den, vec = a
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        r0, s0 = list(self.phi), []
        r1, s1 = _ptrim(list(vec)), [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                c, k = r0[-1], len(r0) - len(r1)
                r0 = [lead * x for x in r0]
                s0 = [lead * x for x in s0] + [0] * (k + len(s1) - len(s0))
                for i, y in enumerate(r1):
                    r0[k + i] -= c * y
                for i, y in enumerate(s1):
                    s0[k + i] -= c * y
                g = math.gcd(*r0, *s0)
                r0 = _ptrim([x // g for x in r0])
                s0 = _ptrim([x // g for x in s0])
            r0, s0, r1, s1 = r1, s1, r0, s0
        c = r1[0]
        if c < 0:
            c, s1 = -c, [-x for x in s1]
        return self.reduce(c, ((i, den * x) for i, x in enumerate(s1)))

    # -- Galois orbits --------------------------------------------------------

    def orbit_rep(self, steps: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
        """(rep, v): rep = v*steps mod N, the lexicographically least point of
        the orbit of steps under the units v mod N, and the least such v."""
        n = self.n
        return min((tuple(v * k % n for k in steps), v) for v in self.units)

    # -- certified signs ----------------------------------------------------

    def inertia(self, pivots: Iterable[QV], nullity: int, u: int = 1) -> Tuple[int, int, int]:
        """(positive, negative, zero) by Sylvester's law: the signs of sigma_u(pivots)."""
        signs = [self.sign(d, u) for d in pivots]
        return signs.count(1), signs.count(-1), nullity

    def sign(self, a: QV, u: int = 1) -> int:
        """Certified sign of sigma_u(a) for a real a; 0 only for the exact zero.

        sigma_u(a) is sum c_j cos(2*pi*u*j/N) / den with den > 0, so its sign
        is that of X = sum c_j * 2^prec * cos(2*pi*u*j/N), read off the
        cosines of all N residues without reducing sigma_u(a).  S = sum c_j *
        C_(u*j mod N) is exact and |S - X| <= e * sum |c_j|, so S beyond that
        bound has the sign of X.  Otherwise prec doubles, at most to 2^16 bits.
        """
        if self.is_zero(a):
            return 0
        n, vec = self.n, a[1]
        slack = sum(map(abs, vec))
        prec = 64
        while True:
            table = self._cos.get(prec)
            if table is None:
                table = self._cos[prec] = _fixed_cosines(n, prec)
            coss, e = table
            s = sum(c * coss[u * j % n] for j, c in enumerate(vec) if c)
            if abs(s) > e * slack:
                return 1 if s > 0 else -1
            prec *= 2
            if prec > (1 << 16):
                raise ArithmeticError(
                    "fixed-point refinement did not separate a provably nonzero "
                    "value from zero; this indicates a bug in the exact layer")


def _fixed_cosines(n: int, prec: int) -> Tuple[List[int], int]:
    """Integers C_j and a bound e with |C_j - 2^prec * cos(2*pi*j/n)| <= e, j < n.

    Everything runs in fixed point at w = prec + g bits: an integer u stands
    for u / 2^w, and one unit of 2^-w is an ulp.  Every step keeps an integer
    bound on its error in ulps:

    1. pi by Machin, pi = 16 atan(1/5) - 4 atan(1/239).  For atan(1/x) the
       powers p_k = floor(p_(k-1) / x^2), p_0 = floor(2^w / x), stay within
       x^2 / (x^2 - 1) < 2 ulps below 2^w / x^(2k+1); each term
       floor(p_k / (2k+1)) adds under 1 more, so under 3 ulps per term.  The
       series stops at the first p_K = 0, where the alternating tail is at
       most its first term, under 2 ulps: atan errs by at most 3K + 2 ulps,
       and pi by 16 and 4 times those.
    2. theta = floor(2 * pi / n) errs by the pi error times 2/n, plus 1 for
       the floor (carried as floor(...) + 2).
    3. zeta = exp(i * theta) by its Taylor series at the rational theta:
       t_k = floor(t_(k-1) * theta / k), whose error err_k is at most
       err_(k-1) * theta / k + 1 (carried as floor(...) + 2).  The series
       stops at a zero term once theta / (k+1) <= 1/2, so the tail is at most
       2 * err_k.  |exp(i*x) - exp(i*y)| <= |x - y| carries theta's error
       over unchanged: zeta errs by D = that + sum err_k + 2 * err_K in
       complex modulus.
    4. zeta^j = round(zeta^(j-1) * zeta): if zeta^(j-1) errs by E_(j-1), the
       product errs by E_(j-1) * (1 + D / 2^w) + D before rounding both
       parts to nearest adds at most 1, carried as
       E_j = E_(j-1) + floor(E_(j-1) * D / 2^w) + D + 2.
    5. C_j = round(Re(zeta^j) / 2^g) errs by at most E_j / 2^g + 1/2, and
       e = floor(E / 2^g) + 2 with E >= every E_j covers it.

    g grows with log prec and log n, so E stays below 2^g and e = 2.
    """
    g = prec.bit_length() + n.bit_length() + 8
    w = prec + g
    one = 1 << w
    pi = pi_err = 0
    for x, weight in ((5, 16), (239, -4)):
        power, k = one // x, 0
        while power:
            term = power // (2 * k + 1)
            pi += weight * (-term if k & 1 else term)
            power //= x * x
            k += 1
        pi_err += abs(weight) * (3 * k + 2)
    theta = 2 * pi // n
    d = 2 * pi_err // n + 2  # theta's error, then zeta's: D
    parts = [0, 0]  # Re and Im of zeta: i^k cycles 1, i, -1, -i
    t, err, k = one, 0, 0
    while True:
        parts[k & 1] += -t if k & 2 else t
        d += err
        k += 1
        t = (t * theta >> w) // k
        err = (err * theta >> w) // k + 2
        if t == 0 and 2 * theta <= (k + 1) << w:
            break
    d += 2 * err
    re, im = parts
    half = 1 << (w - 1)
    zr, zi, big_e = one, 0, 0
    out = []
    for _ in range(n):
        out.append((zr + (1 << (g - 1))) >> g)
        zr, zi = (zr * re - zi * im + half) >> w, (zr * im + zi * re + half) >> w
        big_e += (big_e * d >> w) + d + 2
    return out, (big_e >> g) + 2


_levels: Dict[int, _Level] = {}
_levels_lock = threading.Lock()


def _level(n: int) -> _Level:
    """The level-n tables, built once; the oldest levels are dropped whenever
    the kept tables would hold more than _TABLE_CAP entries (N*phi(N)) in all."""
    with _levels_lock:
        lv = _levels.get(n)
        if lv is None:
            lv = _Level(n)
            while _levels and (n * lv.deg + sum(m.n * m.deg for m in _levels.values())
                               > _TABLE_CAP):
                del _levels[next(iter(_levels))]
            _levels[n] = lv
        return lv


# ---------------------------------------------------------------------------
# public scalar type
# ---------------------------------------------------------------------------

def _exact(x: Union[int, Fraction]) -> Fraction:
    """x as a Fraction; a float is refused, since 0.1 would be its binary
    approximation 3602879701896397/2^55."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is not exact; use int or Fraction")
    return Fraction(x)


class CyclotomicNumber:
    """An element of Q(zeta_N), stored as its level N and canonical pair.

    The constructor takes the N coefficients of zeta_N^k and reduces them at
    once; arithmetic and conjugation are the level's integer operations, so
    equality, zero tests and signs are exact.  Arithmetic between different
    levels lifts both operands to the least common multiple level.  A float
    coefficient or operand is refused with TypeError.
    """

    __slots__ = ("level", "_reduced")

    def __init__(self, level: int, coeffs: Sequence[Union[int, Fraction]]):
        if len(coeffs) != level:
            raise ValueError(f"need exactly {level} coefficients, got {len(coeffs)}")
        coeffs = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self.level = level
        self._reduced: QV = _level(level).reduce(
            den, [(k, c.numerator * (den // c.denominator)) for k, c in enumerate(coeffs) if c])

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, x: Union[int, Fraction], level: int = 1) -> "CyclotomicNumber":
        x = _exact(x)
        return cls._from_canonical(level, _level(level).reduce(x.denominator, [(0, x.numerator)]))

    @classmethod
    def _from_canonical(cls, level: int, qv: QV) -> "CyclotomicNumber":
        num = object.__new__(cls)
        num.level = level
        num._reduced = qv
        return num

    # -- canonical form --------------------------------------------------------

    def reduced(self) -> QV:
        """The canonical pair (den, vec) modulo Phi_N.  Unique per value."""
        return self._reduced

    def lift(self, level: int) -> "CyclotomicNumber":
        """The same value at a multiple N' of N: zeta_N^k = zeta_N'^(k*N'/N)."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise LevelMismatch(f"cannot lift level {self.level} to non-multiple {level}")
        step = level // self.level
        den, vec = self._reduced
        return CyclotomicNumber._from_canonical(
            level, _level(level).reduce(den, [(k * step, c) for k, c in enumerate(vec)]))

    # -- arithmetic -------------------------------------------------------------

    def _common(self, other) -> Optional[Tuple[_Level, QV, QV]]:
        """Both operands' pairs at their common level; None for foreign types."""
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, self.level)
        elif not isinstance(other, CyclotomicNumber):
            return None
        n = math.lcm(self.level, other.level)
        return _level(n), self.lift(n)._reduced, other.lift(n)._reduced

    def _binary(op):
        """The operator op(level, a, b) on both operands' pairs at their common level."""
        def method(self, other):
            common = self._common(other)
            if common is None:
                return NotImplemented
            lv, a, b = common
            return CyclotomicNumber._from_canonical(lv.n, op(lv, a, b))
        return method

    __add__ = __radd__ = _binary(_Level.add)
    __sub__ = _binary(lambda lv, a, b: lv.add(a, _neg(b)))
    __mul__ = __rmul__ = _binary(_Level.mul)
    del _binary

    def __neg__(self):
        return CyclotomicNumber._from_canonical(self.level, _neg(self._reduced))

    def __rsub__(self, other):
        return (-self) + other

    def conjugate(self) -> "CyclotomicNumber":
        return CyclotomicNumber._from_canonical(self.level, _level(self.level).conj(self._reduced))

    def __eq__(self, other) -> bool:
        common = self._common(other)
        if common is None:
            return NotImplemented
        _, a, b = common
        return a == b

    __hash__ = None  # values at different levels compare equal; do not hash

    def __repr__(self):
        den, vec = self._reduced
        terms = [f"{Fraction(c, den)}*z{self.level}^{k}" for k, c in enumerate(vec) if c]
        return "CyclotomicNumber(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# Hermitian matrices over one cyclotomic field
# ---------------------------------------------------------------------------

class HermitianMatrix:
    """A square matrix over Q(zeta_N): the checked container and the numeric oracle.

    entries are CyclotomicNumbers, lifted to their common level and kept as
    canonical pairs, so the Hermitian check runs on integers.  _trusted is the
    one constructor from pairs, for matrices Hermitian by construction.  The
    exact inertia is LaurentMatrix.inertia's.
    """

    def __init__(self, entries: Sequence[Sequence[CyclotomicNumber]]):
        g = len(entries)
        if any(len(row) != g for row in entries):
            raise ValueError("matrix must be square")
        level = math.lcm(*(e.level for row in entries for e in row))
        lv = _level(level)
        mat = [[e.lift(level).reduced() for e in row] for row in entries]
        for i in range(g):
            for j in range(i, g):
                if mat[i][j] != lv.conj(mat[j][i]):
                    raise NotHermitian(f"entry ({i},{j}) is not the conjugate of ({j},{i})")
        self.level, self.size, self._mat = level, g, tuple(mat)

    @classmethod
    def _trusted(cls, mat: List[List[QV]], level: int) -> "HermitianMatrix":
        """Canonical pairs at level that are Hermitian by construction: no check."""
        h = object.__new__(cls)
        h.level, h.size, h._mat = level, len(mat), tuple(mat)
        return h

    def __getitem__(self, ij):
        i, j = ij
        return CyclotomicNumber._from_canonical(self.level, self._mat[i][j])

    def eigen_multiset_numeric(self) -> List[float]:
        """Eigenvalues as floats, ascending, by numpy: the tests' oracle, not a proof."""
        import numpy as np

        if self.size == 0:
            return []
        roots = np.exp(2j * np.pi * np.arange(_level(self.level).deg) / self.level)
        a = np.array([[sum(c * r for c, r in zip(vec, roots)) / den for den, vec in row]
                      for row in self._mat], dtype=complex)
        return [float(x) for x in np.linalg.eigvalsh(a)]


def _inertia(rows: Sequence[Sequence[QV]], lv: _Level) -> Tuple[Tuple[QV, ...], int]:
    """(pivots in the order taken, kernel size) of a Hermitian matrix of canonical pairs.

    Only h_ij with i <= j is read or written, so the rows may hold anything
    below the diagonal.  Each step pivots on the smallest nonzero diagonal
    entry d and adds h_ik * (-d)^-1 * h_kj to every remaining h_ij, i <= j, by
    one addmul; d is real, so the update is Hermitian in (i, j).  Each cleared
    h_ik is stored as itself or as h_ki and conjugated once for the other.
    When every remaining diagonal entry is zero, the congruence row_k +=
    a*row_q, col_k += conj(a)*col_q for the first nonzero h_kq = a (k < q,
    rows above k zero) makes h_kk = 2|a|^2 > 0, which is then the pivot; when
    no nonzero entry is left, the remaining rows are the kernel.
    """
    mat = [list(row) for row in rows]
    alive = list(range(len(mat)))
    pivots = []
    while alive:
        diag = [i for i in alive if not lv.is_zero(mat[i][i])]
        if diag:
            k = min(diag, key=lambda i: lv.size(mat[i][i]))
        else:
            pq = next(((p, q) for p in alive for q in alive
                       if p < q and not lv.is_zero(mat[p][q])), None)
            if pq is None:
                break
            k, q = pq
            a = mat[k][q]
            for i in alive[alive.index(k) + 1:]:  # h_ik += h_iq * conj(a), as h_ki
                h_qi = mat[q][i] if q <= i else lv.conj(mat[i][q])
                mat[k][i] = lv.addmul(mat[k][i], h_qi, a)
            norm = lv.mul(a, lv.conj(a))
            mat[k][k] = lv.add(norm, norm)
        d = mat[k][k]
        pivots.append(d)
        alive.remove(k)
        col = [i for i in alive if not lv.is_zero(mat[i][k] if i < k else mat[k][i])]
        if col:
            # (h_ik, h_ki): the stored entry and its conjugate
            pairs = [(mat[i][k], lv.conj(mat[i][k])) if i < k else
                     (lv.conj(mat[k][i]), mat[k][i]) for i in col]
            neg_dinv = lv.inv(_neg(d))
            for at, i in enumerate(col):
                fi = lv.mul(pairs[at][0], neg_dinv)
                row = mat[i]
                for j, (_, h_kj) in zip(col[at:], pairs[at:]):
                    row[j] = lv.addmul(row[j], fi, h_kj)
    return tuple(pivots), len(alive)


# ---------------------------------------------------------------------------
# Laurent polynomial matrices (the symbolic layer above the field)
# ---------------------------------------------------------------------------

def _steps(omega: Character, level: int) -> List[int]:
    """The exponents k_i with omega_i = zeta_level^k_i, level a multiple of every
    denominator."""
    return [(level // a.denominator) * a.numerator for a in omega]


class LaurentMatrix:
    """H(t) = sum_e t^e C_e in arity variables, held as its integer size x size
    coefficient matrices coeffs = {e: C_e}, a direction left out being zero.

    Exponents and entries are read as ints once (a float is refused with
    TypeError), and the matrix is refused with NotHermitian unless
    C_-e = transpose(C_e), i.e. H(t) = H(t)*, so Hermitian on the torus.
    """

    def __init__(self, arity: int, size: int,
                 coeffs: Mapping[Tuple[int, ...], Sequence[Sequence[int]]]):
        self.arity, self.size, self.coeffs = arity, size, {}
        for exps, c in coeffs.items():
            if len(exps) != arity:
                raise ValueError("exponent vector length does not match arity")
            if len(c) != size or any(len(row) != size for row in c):
                raise ValueError(f"every coefficient matrix must be {size}x{size}")
            exps = tuple(map(operator.index, exps))
            c = tuple(tuple(map(operator.index, row)) for row in c)
            if any(map(any, c)):  # a zero C_e is left out: equal H(t), equal coeffs
                self.coeffs[exps] = c
        zero = ((0,) * size,) * size
        bad = [(min(i, j), max(i, j)) for e, c in self.coeffs.items()
               for mirror in (self.coeffs.get(tuple(-x for x in e), zero),)
               for i in range(size) for j in range(size) if c[i][j] != mirror[j][i]]
        if bad:
            i, j = min(bad)
            raise NotHermitian(f"entry ({j},{i}) is not the conjugate of ({i},{j}) in H(t)")
        # the orbit cache of inertia, on a proxy so that it does not keep self alive
        self._orbit = lru_cache(MAX_GRID_CELLS)(partial(type(self)._eliminate, weakref.proxy(self)))

    @classmethod
    def from_forms(cls, arity: int,
                   forms: Mapping[Tuple[int, ...], Sequence[Sequence[int]]]) -> "LaurentMatrix":
        """H(t) = prod_i (1 - t_i^-1) * sum_eps prod_{i: eps_i=-1} (-t_i) theta^eps.

        forms maps sign vectors eps in {1, -1}^arity to g x g integer Seifert
        forms theta^eps, a direction left out having the zero form.  H(t) is
        refused with NotHermitian unless theta^-eps = transpose(theta^eps).
        """
        g = len(next(iter(forms.values()), ()))
        if any(len(form) != g or any(len(row) != g for row in form) for form in forms.values()):
            raise ValueError(f"every form must be {g}x{g}")
        # for each subset S of the colours, as signs s = -1 on S, theta^eps
        # adds prod(eps) * (-1)^|S| * theta^eps to C_e, e = [eps < 0] - [S]
        coeffs: Dict[Tuple[int, ...], List[List[int]]] = {}
        for eps, form in forms.items():
            for sub in product((1, -1), repeat=arity):
                k = math.prod(eps) * math.prod(sub)
                c = coeffs.setdefault(tuple(int(x < 0) - int(s < 0) for x, s in zip(eps, sub)),
                                      [[0] * g for _ in range(g)])
                for row, theta in zip(c, form):
                    for j, x in enumerate(theta):
                        row[j] += k * x
        return cls(arity, g, coeffs)

    def _level_of(self, omega: Character) -> int:
        """The lcm of omega's denominators; omega has one angle per variable."""
        if len(omega) != self.arity:
            raise ValueError(f"character has {len(omega)} colors, matrix expects {self.arity}")
        return math.lcm(*(a.denominator for a in omega))

    def evaluate(self, omega: Character) -> HermitianMatrix:
        """Specialise at a character, at omega's least level."""
        n = self._level_of(omega)
        return HermitianMatrix._trusted(self._at(n, _steps(omega, n)), n)

    def _at(self, n: int, steps: Sequence[int],
            kept: Optional[Sequence[int]] = None) -> List[List[Optional[QV]]]:
        """The entries at t_i = zeta_n^steps[i]; with kept, ascending, only the
        principal submatrix on kept, None below its diagonal."""
        power = {e: sum(x * s for x, s in zip(e, steps)) for e in self.coeffs}
        lv, index = _level(n), range(self.size) if kept is None else kept
        return [[lv.reduce(1, [(power[e], c[i][j]) for e, c in self.coeffs.items()])
                 if kept is None or i <= j else None for j in index] for i in index]

    def inertia(self, omega: Character) -> Tuple[int, int, int]:
        """(positive, negative, zero) of H(omega), exact: one elimination per Galois orbit.

        With omega = zeta_N^k, N the lcm of its denominators, H is evaluated
        and eliminated only at rep = v*k mod N, the least point of k's orbit
        under the units v.  sigma_u, u = v^-1, maps H(rep) to H(omega), the
        coefficients being integers.  It keeps nonzero pivots nonzero and maps
        the congruence, zero-diagonal fold included, to one diagonalising
        H(omega) as sigma_u(pivots): by Sylvester's law their certified signs
        are the inertia, and the kernel size is orbit-wide.  The matrix keeps its
        last MAX_GRID_CELLS eliminations: no command eliminates an orbit twice.

        Only H_JJ is eliminated, J = _kept.  With R the reduced echelon form of
        the C_e stacked, P = [e_j (j in J) | e_f - sum_(p in J) R_pf e_p (f not
        in J)] is rational, constant, of determinant +-1, and its columns v past
        J have C_e v = 0 = v^T C_e (C_e^T = C_-e), so P^T H(omega) P =
        H_JJ(omega) + 0 at every omega: the dropped columns add to the kernel.
        """
        n = self._level_of(omega)
        lv = _level(n)  # the level bound comes first and bounds the units
        if not self.coeffs:  # J is empty: H is zero, and takes no orbit
            return 0, 0, self.size
        rep, v = lv.orbit_rep(_steps(omega, n))
        return lv.inertia(*self._orbit(n, rep), pow(v, -1, n))

    def _eliminate(self, n: int, rep: Tuple[int, ...]) -> Tuple[Tuple[QV, ...], int]:
        """The pivots and kernel size of H at zeta_n^rep, from the upper triangle
        of H_JJ, J = _kept; each dropped column adds one to the kernel."""
        kept = self._kept
        pivots, nullity = _inertia(self._at(n, rep, kept), _level(n))
        return pivots, nullity + self.size - len(kept)

    @cached_property
    def _kept(self) -> Tuple[int, ...]:
        """J, the pivot columns of the C_e stacked, ascending: one fraction-free
        integer elimination on their distinct rows, which keeps the row space."""
        rows = {row for c in self.coeffs.values() for row in c}
        kept = []
        for j in range(self.size):
            top = next((r for r in rows if r[j]), None)
            if top is not None:
                kept.append(j)
                rows = [[top[j] * x - r[j] * y for x, y in zip(r, top)] if r[j] else r
                        for r in rows if r is not top]
                rows = [[x // g for x in r] for r in rows if (g := math.gcd(*r))]
        return tuple(kept)
