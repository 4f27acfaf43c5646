"""Exact arithmetic over cyclotomic fields and Hermitian inertia.

A character coordinate with angle a/b is the root of unity zeta_N^(N*a/b) once
N is a common multiple of the angle denominators, so every matrix we ever need
to diagonalise has entries in Q(zeta_N).

Canonical form.  An element is a pair (den, vec): a positive integer
denominator and an integer vector of length d = deg Phi_N, the numerator in
the power basis 1, x, ..., x^(d-1) of Q[x]/(Phi_N) at x = zeta_N =
exp(2*pi*i/N).  Phi_N is the minimal polynomial of zeta_N and the pair is
kept in lowest terms, so two elements are equal exactly when their pairs are
equal; there is no epsilon anywhere.

One integer table.  Each level holds pow_rows[k] = x^k mod Phi_N for
0 <= k < N, filled by the multiply-by-x recurrence, which stays integral
because Phi_N is monic.  As x^N = 1, any integer combination sum c_e x^e
reduces by folding each term with pow_rows[e mod N] (_Level.reduce, the only
reduction): a product folds its convolution, conjugation sends x^j to
pow_rows[-j mod N], and Hermitian forms are assembled from their (exponent,
coefficient) terms straight into canonical pairs, then checked Hermitian on
integers.

The public CyclotomicNumber keeps its (unfaithful) coefficient vector of
Q[x]/(x^N - 1) and decides equality, zero tests and signs on the pair.

Signatures and nullities of Hermitian matrices are computed by exact
LDL-style elimination:

* zero tests of pivots are exact (canonical form),
* exactly-zero diagonals are handled structurally (symmetric swap to a nonzero
  diagonal when one exists, otherwise a 2x2 block [[0,a],[conj(a),0]], which
  contributes +1 and -1 regardless of a),
* the sign of each nonzero real pivot is certified by interval arithmetic at
  adaptive precision, in private mpmath interval contexts: the interval is
  refined until it excludes zero, which terminates because zero has already
  been excluded exactly.

The starting interval precision is 64 bits, overridable with the
SPLICE_SIG_PRECISION environment variable.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import threading
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath

from .errors import LevelMismatch, NotHermitian, NotReal
from .torus import Angle, Character

_LEVEL_CAP = 1_000_000  # refuse to silently build gigantic common levels


# ---------------------------------------------------------------------------
# integer/rational polynomial helpers (dense ascending coefficient lists)
# ---------------------------------------------------------------------------

def _ptrim(p: List) -> List:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a: Sequence, b: Sequence) -> List:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ptrim(out)


def _psub(a: Sequence, b: Sequence) -> List:
    n = max(len(a), len(b))
    out = [0] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _ptrim(out)


def _pdivmod_exact(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Divide integer polynomials, requiring the division to stay integral.

    Used only for building cyclotomic polynomials, where b | a exactly or b is
    monic, so no rational coefficients ever appear.
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


def _fdivmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        _ptrim(a)
    return _ptrim(q), a


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


_phi_cache: Dict[int, List[int]] = {}
_phi_lock = threading.Lock()


def cyclotomic_polynomial(n: int) -> List[int]:
    """Integer coefficients of Phi_n, ascending."""
    with _phi_lock:
        if n in _phi_cache:
            return _phi_cache[n]
    if n == 1:
        result = [-1, 1]
    else:
        num = [0] * n + [1]
        num[0] = -1  # x^n - 1
        den = [1]
        for d in _divisors(n)[:-1]:
            den = _pmul(den, cyclotomic_polynomial(d))
        result, rem = _pdivmod_exact(num, den)
        if rem:
            raise ArithmeticError(f"cyclotomic polynomial division left a remainder at n={n}")
    with _phi_lock:
        _phi_cache[n] = result
    return result


# ---------------------------------------------------------------------------
# per-level tables and the canonical pairs (den, vec); zero is (1, 0...0)
# ---------------------------------------------------------------------------

QV = Tuple[int, Tuple[int, ...]]


class _Level:
    """The power table and the scalar operations of one level N."""

    def __init__(self, n: int):
        if n > _LEVEL_CAP:
            raise LevelMismatch(f"level {n} exceeds the supported bound")
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
        self._iv: Dict[int, tuple] = {}

    # -- scalar operations -------------------------------------------------

    def reduce(self, den: int, terms: Iterable[Tuple[int, int]]) -> QV:
        """sum(c * x^e for e, c in terms) / den as a canonical pair: each term
        folds in pow_rows[e mod N].  The only reduction modulo Phi_N."""
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
        return self.normalize(den, out)

    def normalize(self, den: int, vec: List[int]) -> QV:
        if not any(vec):
            return (1, (0,) * self.deg)
        g = math.gcd(den, *vec)
        if g > 1:
            return (den // g, tuple(c // g for c in vec))
        return (den, tuple(vec))

    def add(self, a: QV, b: QV) -> QV:
        da, va = a
        db, vb = b
        if da == db:
            return self.normalize(da, [x + y for x, y in zip(va, vb)])
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return self.normalize(da * ma, [x * ma + y * mb for x, y in zip(va, vb)])

    def sub(self, a: QV, b: QV) -> QV:
        db, vb = b
        return self.add(a, (db, tuple(-c for c in vb)))

    def mul(self, a: QV, b: QV) -> QV:
        da, va = a
        db, vb = b
        conv = [0] * (2 * self.deg - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    if y:
                        conv[i + j] += x * y
        return self.reduce(da * db, enumerate(conv))

    def conj(self, a: QV) -> QV:
        """Complex conjugation: x^j -> x^(-j mod N)."""
        den, vec = a
        return self.reduce(den, ((-j, c) for j, c in enumerate(vec)))

    def is_zero(self, a: QV) -> bool:
        return not any(a[1])

    def size(self, a: QV) -> int:
        return a[0].bit_length() + sum(c.bit_length() for c in a[1])

    def inv(self, a: QV) -> QV:
        """Field inverse via the extended Euclidean algorithm mod Phi_N."""
        den, vec = a
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        r0 = [Fraction(c) for c in self.phi]
        r1 = _ptrim([Fraction(c) for c in vec])
        s0: List[Fraction] = []
        s1: List[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            q, r = _fdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        if not r1:
            raise ZeroDivisionError("element shares a factor with Phi_N; not invertible")
        c = r1[0]
        inv_coeffs = [x / c for x in s1]
        # (vec/den)^-1 = den * inv(vec)
        lcm = 1
        for f in inv_coeffs:
            lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
        out = [0] * self.deg
        for i, f in enumerate(inv_coeffs):
            out[i] = int(f * lcm) * den
        if lcm < 0:
            lcm, out = -lcm, [-c for c in out]
        return self.normalize(lcm, out)

    # -- certified signs ----------------------------------------------------

    def _cos_intervals(self, prec: int) -> tuple:
        """A private interval context at prec, never changed after it is built,
        and cos(2*pi*j/N) for j < deg in it."""
        cached = self._iv.get(prec)
        if cached is None:
            ctx = type(mpmath.iv)()
            ctx.prec = prec
            two_pi = 2 * ctx.pi
            cached = (ctx, [ctx.cos(two_pi * j / self.n) for j in range(self.deg)])
            self._iv[prec] = cached
        return cached

    def sign(self, a: QV, start_prec: Optional[int] = None) -> int:
        """Certified sign of a real element; 0 only for the exact zero."""
        if self.is_zero(a):
            return 0
        vec = a[1]  # den > 0
        prec = start_prec or _default_precision()
        while True:
            ctx, coss = self._cos_intervals(prec)
            s = ctx.mpf(0)
            for c, ci in zip(vec, coss):
                if c:
                    s += c * ci
            if s.a > 0:
                return 1
            if s.b < 0:
                return -1
            prec *= 2
            if prec > (1 << 16):
                raise ArithmeticError(
                    "interval refinement did not separate a provably nonzero "
                    "value from zero; this indicates a bug in the exact layer")


_levels: Dict[int, _Level] = {}
_levels_lock = threading.Lock()


def _level(n: int) -> _Level:
    with _levels_lock:
        lv = _levels.get(n)
        if lv is None:
            lv = _Level(n)
            _levels[n] = lv
        return lv


def _default_precision() -> int:
    raw = os.environ.get("SPLICE_SIG_PRECISION", "")
    try:
        p = int(raw)
    except ValueError:
        return 64
    return max(p, 8) if p else 64


# ---------------------------------------------------------------------------
# public scalar type
# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """An element of Q(zeta_N), stored as a vector of Q[x]/(x^N - 1).

    coeffs[k] is the coefficient of zeta_N^k.  Conjugation reverses indices
    (coeffs[k] -> coeffs[-k mod N]).  Equality, zero tests and realness are
    decided on the canonical pair modulo Phi_N, so they are exact.

    Arithmetic between different levels lifts both operands to the least
    common multiple level.
    """

    __slots__ = ("level", "coeffs", "_reduced")

    def __init__(self, level: int, coeffs: Sequence[Union[int, Fraction]]):
        if level < 1:
            raise ValueError("level must be a positive integer")
        if len(coeffs) != level:
            raise ValueError(f"need exactly {level} coefficients, got {len(coeffs)}")
        self.level = level
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self._reduced: Optional[QV] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, x: Union[int, Fraction], level: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * level
        coeffs[0] = Fraction(x)
        return cls(level, coeffs)

    @classmethod
    def root_of_unity(cls, level: int, k: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * level
        coeffs[k % level] = Fraction(1)
        return cls(level, coeffs)

    @classmethod
    def from_angle(cls, a: Angle, level: int) -> "CyclotomicNumber":
        """The coordinate exp(2*pi*i*theta) at a level divisible by theta's denominator."""
        if level % a.denominator != 0:
            raise LevelMismatch(f"angle {a} does not live at level {level}")
        return cls.root_of_unity(level, (level // a.denominator) * a.numerator)

    @classmethod
    def _from_canonical(cls, level: int, qv: QV) -> "CyclotomicNumber":
        den, vec = qv
        num = cls(level, [Fraction(c, den) for c in vec] + [0] * (level - len(vec)))
        num._reduced = qv
        return num

    # -- canonical form --------------------------------------------------------

    def reduced(self) -> QV:
        """The canonical pair (den, vec) modulo Phi_N.  Unique per value."""
        if self._reduced is None:
            den = math.lcm(*(c.denominator for c in self.coeffs))
            self._reduced = _level(self.level).reduce(
                den, [(k, c.numerator * (den // c.denominator))
                      for k, c in enumerate(self.coeffs) if c])
        return self._reduced

    def is_zero(self) -> bool:
        return not any(self.reduced()[1])

    def is_real(self) -> bool:
        return self.conjugate() == self

    def lift(self, level: int) -> "CyclotomicNumber":
        if level == self.level:
            return self
        if level % self.level != 0:
            raise LevelMismatch(f"cannot lift level {self.level} to non-multiple {level}")
        step = level // self.level
        coeffs = [Fraction(0)] * level
        for k, c in enumerate(self.coeffs):
            coeffs[k * step] = c
        return CyclotomicNumber(level, coeffs)

    # -- arithmetic -------------------------------------------------------------

    def _common(self, other) -> Tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if self.level == other.level:
            return self, other
        lcm = self.level * other.level // math.gcd(self.level, other.level)
        if lcm > _LEVEL_CAP:
            raise LevelMismatch(f"combined level {lcm} exceeds the supported bound")
        return self.lift(lcm), other.lift(lcm)

    def __add__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.level, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        n = a.level
        out = [Fraction(0)] * n
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[(i + j) % n] += x * y
        return CyclotomicNumber(n, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicNumber":
        n = self.level
        return CyclotomicNumber(n, [self.coeffs[(-k) % n] for k in range(n)])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.reduced() == b.reduced()

    __hash__ = None  # values at different levels compare equal; do not hash

    def __repr__(self):
        terms = [f"{c}*z{self.level}^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "CyclotomicNumber(" + (" + ".join(terms) if terms else "0") + ")"

    # -- analytic views ----------------------------------------------------------

    def to_complex(self) -> complex:
        n = self.level
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(self.coeffs) if c),
            0j,
        )

    def sign_real(self, start_prec: Optional[int] = None) -> int:
        """Certified sign in {-1, 0, 1}; raises NotReal off the real line."""
        if not self.is_real():
            raise NotReal(f"{self!r} is not fixed by conjugation")
        return _level(self.level).sign(self.reduced(), start_prec)


# ---------------------------------------------------------------------------
# Hermitian matrices over one cyclotomic field
# ---------------------------------------------------------------------------

class HermitianMatrix:
    """A square matrix over Q(zeta_N), checked exactly Hermitian at construction.

    entries are CyclotomicNumbers, lifted to their common level, or, when
    level is given, canonical pairs (den, vec) at that level, as the form
    assemblers emit them.  Either way the matrix is kept as canonical pairs
    and checked on integers.
    """

    def __init__(self, entries: Sequence[Sequence[Union[CyclotomicNumber, QV]]],
                 level: Optional[int] = None):
        g = len(entries)
        if any(len(row) != g for row in entries):
            raise ValueError("matrix must be square")
        numbers = level is None
        if numbers:
            level = math.lcm(*(e.level for row in entries for e in row))
        lv = _level(level)
        mat = [[e.lift(level).reduced() if numbers else e for e in row] for row in entries]
        for i in range(g):
            for j in range(i, g):
                if mat[i][j] != lv.conj(mat[j][i]):
                    raise NotHermitian(f"entry ({i},{j}) is not the conjugate of ({j},{i})")
        self.level = level
        self.size = g
        self._lv = lv
        self._mat = tuple(mat)
        self._inertia: Optional[Tuple[int, int, int]] = None

    @property
    def entries(self) -> Tuple[Tuple[CyclotomicNumber, ...], ...]:
        """The entries as CyclotomicNumbers at the common level."""
        return tuple(tuple(CyclotomicNumber._from_canonical(self.level, e) for e in row)
                     for row in self._mat)

    def __getitem__(self, ij):
        i, j = ij
        return CyclotomicNumber._from_canonical(self.level, self._mat[i][j])

    def signature_nullity(self) -> Tuple[int, int]:
        """(signature, nullity), both exact."""
        pos, neg, nul = self._compute_inertia()
        return pos - neg, nul

    def inertia(self) -> Tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts, exact."""
        return self._compute_inertia()

    def _compute_inertia(self) -> Tuple[int, int, int]:
        if self._inertia is None:
            self._inertia = _inertia([list(row) for row in self._mat], self._lv)
        return self._inertia

    def to_complex_matrix(self) -> List[List[complex]]:
        roots = [cmath.exp(2j * cmath.pi * k / self.level) for k in range(self._lv.deg)]
        return [[sum(c * r for c, r in zip(vec, roots)) / den for den, vec in row]
                for row in self._mat]

    def eigen_multiset_numeric(self) -> List[float]:
        """Eigenvalues as floats, ascending.  For cross-checks, not proofs."""
        import numpy as np

        if self.size == 0:
            return []
        a = np.array(self.to_complex_matrix(), dtype=complex)
        return [float(x) for x in np.linalg.eigvalsh(a)]


def _inertia(mat: List[List[QV]], lv: _Level) -> Tuple[int, int, int]:
    """Exact inertia of a Hermitian matrix of fast scalars, destructively."""
    alive = list(range(len(mat)))
    pos = neg = nul = 0
    while alive:
        diag = [i for i in alive if not lv.is_zero(mat[i][i])]
        if diag:
            k = min(diag, key=lambda i: lv.size(mat[i][i]))
            d = mat[k][k]
            if lv.sign(d) > 0:
                pos += 1
            else:
                neg += 1
            dinv = lv.inv(d)
            alive.remove(k)
            col = {i: mat[i][k] for i in alive if not lv.is_zero(mat[i][k])}
            if col:
                factors = {i: lv.mul(c, dinv) for i, c in col.items()}
                conj_col = {i: lv.conj(c) for i, c in col.items()}
                for i, fi in factors.items():
                    row = mat[i]
                    for j in col:
                        row[j] = lv.sub(row[j], lv.mul(fi, conj_col[j]))
            continue
        # every remaining diagonal entry is exactly zero
        block = None
        for a_pos, i in enumerate(alive):
            for j in alive[a_pos + 1:]:
                if not lv.is_zero(mat[i][j]):
                    block = (i, j)
                    break
            if block:
                break
        if block is None:
            nul += len(alive)
            break
        p, q = block
        pos += 1
        neg += 1
        a = mat[p][q]
        ainv = lv.inv(a)
        ainv_c = lv.conj(ainv)
        alive.remove(p)
        alive.remove(q)
        colp = {i: mat[i][p] for i in alive}
        colq = {i: mat[i][q] for i in alive}
        conj_p = {i: lv.conj(c) for i, c in colp.items()}
        conj_q = {i: lv.conj(c) for i, c in colq.items()}
        for i in alive:
            ui = lv.mul(colp[i], ainv_c)
            vi = lv.mul(colq[i], ainv)
            row = mat[i]
            for j in alive:
                t = lv.add(lv.mul(ui, conj_q[j]), lv.mul(vi, conj_p[j]))
                row[j] = lv.sub(row[j], t)
    return pos, neg, nul


def signature_nullity(h: HermitianMatrix) -> Tuple[int, int]:
    return h.signature_nullity()


def sign_real(c: CyclotomicNumber, start_prec: Optional[int] = None) -> int:
    return c.sign_real(start_prec)


def eigen_multiset_numeric(h: HermitianMatrix) -> List[float]:
    return h.eigen_multiset_numeric()


# ---------------------------------------------------------------------------
# Laurent polynomial matrices (the symbolic layer above the field)
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A Laurent polynomial in mu commuting variables with rational coefficients.

    Terms are kept in a dict {exponent-vector: coefficient}.  Negative
    exponents are fine; on the unit torus they evaluate to conjugates.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[Dict[Tuple[int, ...], Fraction]] = None):
        self.arity = arity
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(exps) != arity:
                    raise ValueError("exponent vector length does not match arity")
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def const(cls, arity: int, c: Union[int, Fraction]) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: Fraction(c)})

    @classmethod
    def var(cls, arity: int, i: int, power: int = 1) -> "LaurentPoly":
        exps = [0] * arity
        exps[i] = power
        return cls(arity, {tuple(exps): Fraction(1)})

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.arity, other)
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                raise ValueError("mixed arities")
            return other
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(self.arity, terms)

    __rmul__ = __mul__

    def conjugate(self) -> "LaurentPoly":
        """Conjugation on the torus: t_i -> t_i^-1, coefficients unchanged."""
        return LaurentPoly(self.arity, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"t{i}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def evaluate(self, omega: Character, level: int) -> CyclotomicNumber:
        qv = _level(level).reduce(*self._integer_terms(_steps(omega, level)))
        return CyclotomicNumber._from_canonical(level, qv)

    def _integer_terms(self, steps: Sequence[int]) -> Tuple[int, List[Tuple[int, int]]]:
        """(den, [(k, c)]) with self = sum(c * zeta^k) / den at t_i = zeta^steps[i]."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return den, [(sum(e * s for e, s in zip(exps, steps)), c.numerator * (den // c.denominator))
                     for exps, c in self.terms.items()]


def _common_level(omega: Character) -> int:
    n = 1
    for a in omega:
        n = n * a.denominator // math.gcd(n, a.denominator)
    return n


def _steps(omega: Character, level: int) -> List[int]:
    """The exponents k_i with omega_i = zeta_level^k_i."""
    steps = []
    for a in omega:
        if level % a.denominator != 0:
            raise LevelMismatch(f"angle {a} does not live at level {level}")
        steps.append((level // a.denominator) * a.numerator)
    return steps


class LaurentMatrix:
    """A square matrix of Laurent polynomials, Hermitian after evaluation on the torus."""

    def __init__(self, variables: Sequence[str], entries: Sequence[Sequence[LaurentPoly]]):
        self.variables = tuple(variables)
        g = len(entries)
        if any(len(row) != g for row in entries):
            raise ValueError("matrix must be square")
        for row in entries:
            for e in row:
                if e.arity != len(self.variables):
                    raise ValueError("entry arity does not match the variable list")
        self.entries = tuple(tuple(row) for row in entries)
        self.size = g

    @property
    def arity(self) -> int:
        return len(self.variables)

    def evaluate(self, omega: Character, level: Optional[int] = None) -> HermitianMatrix:
        """Specialise at a character; the result is checked exactly Hermitian."""
        if len(omega) != self.arity:
            raise ValueError(f"character has {len(omega)} colors, matrix expects {self.arity}")
        n = level or _common_level(omega)
        steps = _steps(omega, n)
        lv = _level(n)
        return HermitianMatrix([[lv.reduce(*e._integer_terms(steps)) for e in row]
                                for row in self.entries], level=n)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def term_obj(exps, c):
            coeff = c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            return {"coeff": coeff, "exps": list(exps)}

        return {
            "variables": list(self.variables),
            "entries": [
                [[term_obj(e, c) for e, c in sorted(poly.terms.items())] for poly in row]
                for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LaurentMatrix":
        variables = [str(v) for v in doc["variables"]]
        arity = len(variables)
        entries = []
        for row in doc["entries"]:
            out_row = []
            for terms in row:
                d: Dict[Tuple[int, ...], Fraction] = {}
                for t in terms:
                    exps = tuple(int(x) for x in t["exps"])
                    d[exps] = d.get(exps, Fraction(0)) + Fraction(str(t["coeff"]))
                out_row.append(LaurentPoly(arity, d))
            entries.append(out_row)
        return cls(variables, entries)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "LaurentMatrix":
        return cls.from_json(json.loads(text))


def evaluate(matrix: LaurentMatrix, omega: Character) -> HermitianMatrix:
    return matrix.evaluate(omega)
