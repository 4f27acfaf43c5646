"""The integer form pipeline against independent references.

Canonical reduction, the power table and CyclotomicNumber arithmetic are
checked against a plain long-division remainder over Fraction, the last on a
Fraction coefficient model of Q[x]/(x^N - 1); the inertia that the integer path
computes for random Laurent-polynomial Hermitian matrices is checked against
numpy's eigvalsh on an independently evaluated complex matrix.  The field
inverse is checked by a * inv(a) = 1, and the cyclotomic polynomials by their
definition, prod_{d | n} Phi_d = x^n - 1.  The fixed-point cosine tables
behind certified signs are checked against mpmath at 200 extra bits, their
error bound's terms against a step-by-step restatement of its derivation, and the
signs themselves on sqrt(k) * 10^d less its integer part, which needs
refinement past the starting precision.  Certified signs must leave global
mpmath state alone.

LaurentMatrix.inertia eliminates once per Galois orbit, at the least point
that a brute-force scan over every unit finds, and reads a conjugate
sigma_u(d) of each pivot off the cosines of every residue, checked against
mpmath and against the sign of sigma_u(d) reduced.  At every conjugate
character it must give what a direct elimination there gives, the nullity
is the same on a whole orbit, `verify hopf-oracle` eliminates once per
distinct (level, orbit) of its grid in each family that is not a zero form,
`hopf-nullity` eliminates nothing after it, an order-24 sweep of torus-3-6
eliminates once per orbit of its grid, refusals keep nothing, and the orbit
cache stays within its bound without changing an answer or keeping its
matrix alive.  A LaurentMatrix is refused when built exactly when some entry
(j, i) is not (i, j) with its exponents negated, and an accepted one
evaluates to matrices that the checked HermitianMatrix constructor accepts.
The random matrices are drawn entry by entry, as polynomials {exponents: int},
and handed to LaurentMatrix as their coefficient matrices C_e.

LaurentMatrix.inertia eliminates only the principal submatrix on the pivot
columns of the stacked coefficients: on forms congruent by a unimodular
integer matrix to a random form padded with a zero block it must give the
inertia of the full matrix and keep as many columns as a Fraction rank says,
the Hopf families keep (m - 1)(n - 1) of their mn rows and the fixtures all.
A rank-deficient form, the zero form included, gives the direct inertia at
any level <= 60 and keeps its refusals of a wrong arity and a level past the
table bound.
"""

import cmath
import math
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import inertia
from splicesig import cyclotomic, fixtures, verify
from splicesig.ccomplex import SeifertFamily
from splicesig.cli import main
from splicesig.errors import MAX_GRID_CELLS, InvalidFamily, LevelMismatch, NotHermitian
from splicesig.cyclotomic import (
    CyclotomicNumber,
    LaurentMatrix,
    _fixed_cosines,
    _level,
    _pdivmod_exact,
    _totient,
    cyclotomic_polynomial,
)
from splicesig.hopf import hopf_seifert_family, sigma_k
from splicesig.torus import Angle


def reference_remainder(level, den, terms):
    """sum(c * x^e) / den mod Phi_N by Fraction long division, padded to deg."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(level)]
    rem = [Fraction(0)] * level
    for e, c in terms:
        rem[e % level] += Fraction(c, den)  # x^N = 1
    while len(rem) >= len(phi):
        lead = rem.pop()
        shift = len(rem) - (len(phi) - 1)
        for i, p in enumerate(phi[:-1]):
            rem[shift + i] -= lead * p
    return rem + [Fraction(0)] * (len(phi) - 1 - len(rem))


def as_fractions(qv):
    den, vec = qv
    return [Fraction(c, den) for c in vec]


def root_of_unity(n, k=1):
    """zeta_n^k, from its coefficients over 1, zeta_n, ..., zeta_n^(n-1)."""
    return CyclotomicNumber(n, [int(j == k % n) for j in range(n)])


sparse_terms = st.lists(
    st.tuples(st.integers(-1000, 1000), st.integers(-50, 50)), max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 420), st.integers(1, 30), sparse_terms)
def test_reduce_matches_long_division(level, den, terms):
    got = _level(level).reduce(den, terms)
    assert as_fractions(got) == reference_remainder(level, den, terms)
    # canonical: positive denominator in lowest terms, zero is (1, 0...)
    out_den, vec = got
    assert out_den > 0 and math.gcd(out_den, *vec) == 1


def test_power_table_matches_long_division():
    for level in (1, 2, 12, 60, 105, 420):
        lv = _level(level)
        phi = cyclotomic_polynomial(level)
        assert len(lv.pow_rows) == level
        for k, (idx, coefs) in enumerate(lv.pow_rows):
            _, rem = _pdivmod_exact([0] * k + [1], phi)
            rem = list(rem) + [0] * (lv.deg - len(rem))
            dense = [0] * lv.deg
            for i, c in zip(idx, coefs):
                dense[i] = c
            assert dense == rem, (level, k)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # the definition: x^n - 1 = prod of Phi_d over the divisors d of n
    for n in range(1, 301):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


@st.composite
def nonzero_pairs(draw):
    """A level N <= 420 (with the primes 53 and 59) and a nonzero pair, dense or sparse.

    A dense inverse makes O(d^2) operations on coefficients that grow to O(d)
    bits (about 12 s at degree 388), so dense pairs are drawn at degree
    d <= 96, the degree of level 420, and sparse ones at every level.
    """
    level = draw(st.one_of(st.sampled_from([53, 59]), st.integers(1, 420)))
    deg = _level(level).deg
    if deg <= 96 and draw(st.booleans()):
        vec = draw(st.lists(st.integers(-50, 50), min_size=deg, max_size=deg))
    else:
        vec = [0] * deg
        for _ in range(draw(st.integers(1, 4))):
            vec[draw(st.integers(0, deg - 1))] = draw(st.integers(-50, 50))
    assume(any(vec))
    return level, _level(level).reduce(draw(st.integers(1, 30)), enumerate(vec))


@settings(max_examples=60, deadline=None)
@given(nonzero_pairs())
def test_inverse_times_element_is_one(case):
    level, a = case
    lv = _level(level)
    assert lv.mul(a, lv.inv(a)) == lv.reduce(1, [(0, 1)])


def test_inverse_of_zero_raises():
    for level in (1, 12, 59):
        lv = _level(level)
        with pytest.raises(ZeroDivisionError):
            lv.inv(lv.reduce(1, []))


def test_scalar_canonical_form_is_the_reference_remainder():
    z = root_of_unity(15, 7)
    x = z * Fraction(3, 4) - z.conjugate() * 2 + Fraction(1, 6)
    # 3/4 z^7 - 2 z^8 + 1/6, over the common denominator 12
    terms = [(7, 9), (8, -24), (0, 2)]
    assert as_fractions(x.reduced()) == reference_remainder(15, 12, terms)


# ---------------------------------------------------------------------------
# CyclotomicNumber vs a Fraction coefficient model on Q[x]/(x^N - 1)
# ---------------------------------------------------------------------------

def model_remainder(coeffs):
    """The model's value mod Phi_N, for coeffs[k] the coefficient of x^k."""
    den = math.lcm(*(c.denominator for c in coeffs))
    terms = [(k, c.numerator * (den // c.denominator)) for k, c in enumerate(coeffs)]
    return reference_remainder(len(coeffs), den, terms)


def model_mul(a, b):
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += x * y
    return out


def model_lift(a, level):
    step = level // len(a)
    out = [Fraction(0)] * level
    for k, c in enumerate(a):
        out[k * step] = c
    return out


@st.composite
def coefficients(draw, level):
    out = [Fraction(0)] * level
    for _ in range(draw(st.integers(0, 6))):
        out[draw(st.integers(0, level - 1))] += Fraction(
            draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return out


@st.composite
def scalar_pairs(draw):
    """Coefficients at a level N <= 60 and at a divisor of N."""
    level = draw(st.integers(1, 60))
    sub = draw(st.sampled_from([d for d in range(1, level + 1) if level % d == 0]))
    return level, draw(coefficients(level)), sub, draw(coefficients(sub))


@settings(max_examples=120, deadline=None)
@given(scalar_pairs(), st.integers(1, 3))
def test_scalar_arithmetic_matches_coefficient_model(case, mult):
    level, a, sub, b = case
    x, y = CyclotomicNumber(level, a), CyclotomicNumber(sub, b)
    b_up = model_lift(b, level)

    def check(num, coeffs):
        assert num.level == len(coeffs)
        assert as_fractions(num.reduced()) == model_remainder(coeffs)

    check(x, a)
    check(x + y, [u + v for u, v in zip(a, b_up)])
    check(y + x, [u + v for u, v in zip(a, b_up)])
    check(x - y, [u - v for u, v in zip(a, b_up)])
    check(y - x, [v - u for u, v in zip(a, b_up)])
    check(x * y, model_mul(a, b_up))
    check(x.conjugate(), [a[-k % level] for k in range(level)])
    check(x.lift(level * mult), model_lift(a, level * mult))
    # cross-level equality is equality of the model's values
    assert (x == y) == (model_remainder(a) == model_remainder(b_up))
    assert y == CyclotomicNumber(level, b_up) and y.lift(level * mult) == y
    assert x + 1 != x


# ---------------------------------------------------------------------------
# integer-path inertia vs numpy
# ---------------------------------------------------------------------------

# an entry of H(t) is drawn as a polynomial {exponent vector: nonzero int}

def combine(pairs):
    """sum(k * p for k, p in pairs), term by term."""
    terms = {}
    for k, p in pairs:
        for exps, c in p.items():
            terms[exps] = terms.get(exps, 0) + k * c
    return {e: c for e, c in terms.items() if c}


def laurent(arity, draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(arity))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-3, 3))
    return combine([(1, terms)])


def conj(p):
    """Conjugation on the torus: t_i -> t_i^-1, coefficients unchanged."""
    return {tuple(-x for x in e): c for e, c in p.items()}


def hermitian(q):
    """q + conj(q)."""
    return combine([(1, q), (1, conj(q))])


def laurent_matrix(arity, rows):
    """The LaurentMatrix whose entry (i, j) is the polynomial rows[i][j]."""
    g = len(rows)
    coeffs = {}
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            for e, c in p.items():
                coeffs.setdefault(e, [[0] * g for _ in range(g)])[i][j] += c
    return LaurentMatrix(arity, g, coeffs)


def entries(matrix):
    """The polynomial entries of H(t), read back off its C_e."""
    return [[{e: c[i][j] for e, c in matrix.coeffs.items() if c[i][j]}
             for j in range(matrix.size)] for i in range(matrix.size)]


@st.composite
def hermitian_laurent_at_root(draw):
    arity = draw(st.integers(1, 2))
    g = draw(st.integers(1, 4))
    rows = [[None] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = hermitian(laurent(arity, draw))
        for j in range(i + 1, g):
            rows[i][j] = laurent(arity, draw)
            rows[j][i] = conj(rows[i][j])
    omega = tuple(Angle(Fraction(draw(st.integers(0, b - 1)), b))
                  for b in (draw(st.sampled_from([2, 3, 4, 5, 6, 8, 10, 12]))
                            for _ in range(arity)))
    return laurent_matrix(arity, rows), omega


def numeric_matrix(matrix, omega):
    """The complex matrix straight from the Laurent terms, in floating point."""
    def value(poly):
        total = 0j
        for exps, c in poly.items():
            turns = float(sum(e * a.value for e, a in zip(exps, omega)))
            total += c * cmath.exp(2j * cmath.pi * turns)
        return total
    return np.array([[value(p) for p in row] for row in entries(matrix)], dtype=complex)


def numeric_inertia(matrix, omega):
    """(positive, negative, zero) from eigvalsh; rejects spectra too close to 0."""
    eig = np.linalg.eigvalsh(numeric_matrix(matrix, omega))
    # decide only where the spectrum is clearly split from zero
    assume(all(abs(x) < 1e-9 or abs(x) > 1e-6 for x in eig))
    return (sum(1 for x in eig if x > 1e-6), sum(1 for x in eig if x < -1e-6),
            sum(1 for x in eig if abs(x) < 1e-9))


@settings(max_examples=80, deadline=None)
@given(hermitian_laurent_at_root())
def test_integer_inertia_matches_eigvalsh(case):
    matrix, omega = case
    assert inertia(matrix.evaluate(omega)) == numeric_inertia(matrix, omega)


@st.composite
def zero_diagonal_laurent_at_level(draw):
    """A Hermitian Laurent matrix with zero diagonal, g <= 6, at a level N <= 60."""
    arity = draw(st.integers(1, 2))
    g = draw(st.integers(2, 6))
    rows = [[{}] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            rows[i][j] = laurent(arity, draw)
            rows[j][i] = conj(rows[i][j])
    level = draw(st.integers(1, 60))
    omega = tuple(Angle(Fraction(draw(st.integers(0, level - 1)), level))
                  for _ in range(arity))
    return laurent_matrix(arity, rows), omega, level


@settings(max_examples=80, deadline=None)
@given(zero_diagonal_laurent_at_level())
def test_zero_diagonal_inertia_matches_eigvalsh(case):
    # every first pivot comes from the congruence that folds h_pq into h_pp
    matrix, omega, _ = case
    assert inertia(matrix.evaluate(omega)) == numeric_inertia(matrix, omega)


# ---------------------------------------------------------------------------
# one elimination per Galois orbit
# ---------------------------------------------------------------------------

def conjugates(omega, level):
    """omega^u for every unit u mod level."""
    return [tuple(a * u for a in omega)
            for u in range(1, level + 1) if math.gcd(u, level) == 1]


def lcm_level(omega):
    return math.lcm(*(a.denominator for a in omega))


def sigma(level, a, u):
    """sigma_u(a) by reduction: x^j -> x^(u*j mod N)."""
    den, vec = a
    return _level(level).reduce(den, ((u * j, c) for j, c in enumerate(vec)))


@settings(max_examples=80, deadline=None)
@given(nonzero_pairs(), st.integers(0, 10 ** 6))
def test_sign_of_a_conjugate_is_the_sign_of_its_reduction(case, pick):
    level, a = case
    lv = _level(level)
    d = lv.add(a, lv.conj(a))  # real
    units = [u for u in range(1, level + 1) if math.gcd(u, level) == 1]
    u = units[pick % len(units)]
    assert lv.sign(d, u) == lv.sign(sigma(level, d, u))


@pytest.mark.parametrize("n", [7, 12, 60, 97, 420])
@pytest.mark.parametrize("prec", [64, 256])
def test_fixed_cosines_of_every_residue(n, prec):
    # signs of conjugates read C_k for every k < n, not only k < deg Phi_n
    coss, e = _fixed_cosines(n, prec)
    assert len(coss) == n and e <= 2
    with mpmath.workprec(prec + 200):
        scale = mpmath.mpf(2) ** prec
        for k, ck in enumerate(coss):
            assert abs(ck - scale * mpmath.cospi(mpmath.mpf(2 * k) / n)) <= e, (n, prec, k)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.lists(st.one_of(st.just(0), st.integers(0, 10 ** 6)), max_size=3))
@example(1, [])
@example(60, [])
@example(12, [0])
@example(60, [0, 0, 35])
@example(42, [14, 0, 21])
def test_orbit_rep_is_the_least_point_over_all_units(n, ks):
    steps = [k % n for k in ks]
    brute = min((tuple(v * k % n for k in steps), v)
                for v in range(1, n + 1) if math.gcd(v, n) == 1)
    assert _level(n).orbit_rep(steps) == brute


@settings(max_examples=60, deadline=None)
@given(hermitian_laurent_at_root())
def test_orbit_inertia_is_the_direct_inertia_at_every_conjugate(case):
    matrix, omega = case
    for om in conjugates(omega, lcm_level(omega)):
        assert matrix.inertia(om) == inertia(matrix.evaluate(om))


@settings(max_examples=40, deadline=None)
@given(zero_diagonal_laurent_at_level())
def test_orbit_inertia_through_the_fold_at_every_conjugate(case):
    matrix, omega, level = case
    for om in conjugates(omega, level):
        assert matrix.inertia(om) == inertia(matrix.evaluate(om))


@settings(max_examples=40, deadline=None)
@given(st.one_of(hermitian_laurent_at_root(),
                 zero_diagonal_laurent_at_level().map(lambda c: c[:2])))
def test_nullity_is_galois_invariant(case):
    matrix, omega = case
    orbit = conjugates(omega, lcm_level(omega))
    direct = {inertia(matrix.evaluate(om))[2] for om in orbit}
    assert len(direct) == 1
    assert {matrix.inertia(om)[2] for om in orbit} == direct


def test_hopf_oracle_eliminates_once_per_orbit(monkeypatch):
    orbits = set()
    for a, b in product(range(1, 12), repeat=2):
        omega = (Angle(Fraction(a, 12)), Angle(Fraction(b, 12)))
        n = lcm_level(omega)
        ks = [int(x.value * n) for x in omega]
        orbits.add((n, frozenset(tuple(u * k % n for k in ks)
                                 for u in range(1, n + 1) if math.gcd(u, n) == 1)))
    sizes = Counter()
    real = cyclotomic._inertia

    def counting(mat, lv):
        sizes[len(mat)] += 1
        return real(mat, lv)
    monkeypatch.setattr(cyclotomic, "_inertia", counting)
    assert verify.hopf_oracle().passed
    # 16 families, each a fresh H(t) eliminated on its (m - 1)(n - 1) kept
    # rows; the 7 with m = 1 or n = 1 are zero forms and take no orbit
    kept = Counter((m - 1) * (n - 1) for m, n in product(range(1, 5), repeat=2))
    assert len(orbits) == 39
    assert dict(sizes) == {g: k * len(orbits) for g, k in kept.items() if g}
    assert sum(sizes.values()) == 9 * len(orbits)


def test_sweep_eliminates_once_per_orbit(monkeypatch, capsys):
    # the order-24 grid of torus-3-6 has more orbits than a cache of 1024
    # holds, and sweep meets an orbit again only after many others
    orbits = set()
    for ks in product(range(1, 24), repeat=3):
        n = 24 // math.gcd(24, *ks)
        steps = [k * n // 24 for k in ks]
        orbits.add((n, min(tuple(u * k % n for k in steps)
                           for u in range(1, n + 1) if math.gcd(u, n) == 1)))
    calls = []
    real = LaurentMatrix._eliminate

    def counting(self, n, rep):
        calls.append((n, rep))
        return real(self, n, rep)
    monkeypatch.setattr(LaurentMatrix, "_eliminate", counting)
    assert main(["sweep", "torus-3-6", "--order", "24"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 23 ** 3
    assert len(calls) == len(orbits) == 1765
    assert set(calls) == orbits


def test_hopf_nullity_reads_the_oracles_orbits(monkeypatch):
    # hopf-nullity's kernel checks at sixths lie on hopf-oracle's twelfths grid,
    # and verify builds each Hopf family once
    assert verify.hopf_oracle().passed
    calls = []
    real = cyclotomic._inertia

    def counting(mat, lv):
        calls.append(lv.n)
        return real(mat, lv)
    monkeypatch.setattr(cyclotomic, "_inertia", counting)
    assert verify.hopf_nullity_check().passed
    assert calls == []


def test_refusals_keep_no_orbit():
    # not Hermitian: the + form's transpose is not the - form
    # refused when built: no family, so no form compiled and no orbit kept
    with pytest.raises(InvalidFamily, match="duality broken"):
        SeifertFamily(1, {(1,): [[1, 1], [0, 0]], (-1,): [[1, 1], [0, 0]]})
    # a matrix that is not H(t) = H(t)* is refused before it has an orbit cache
    with pytest.raises(NotHermitian, match=r"entry \(0,0\)"):
        LaurentMatrix(1, 1, {(1,): [[1]]})


def test_hermitian_at_some_points_is_refused_when_built():
    # t0 - t0^-1 = 2i*sin(2*pi*theta): zero at 1/2, not real at 1/3
    with pytest.raises(NotHermitian, match=r"entry \(0,0\)"):
        LaurentMatrix(1, 1, {(1,): [[1]], (-1,): [[-1]]})
    # t0 and t0^-1 agree at 1/2 only: the lower entry is named
    with pytest.raises(NotHermitian, match=r"entry \(1,0\) is not the conjugate of \(0,1\)"):
        LaurentMatrix(1, 2, {(1,): [[0, 1], [1, 0]]})


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
def test_family_forms_are_hermitian_as_polynomials(m, n):
    matrix = hopf_seifert_family(m, n).laurent  # built, so H(t) = H(t)*
    for omega in conjugates((Angle(Fraction(1, 12)), Angle(Fraction(5, 12))), 12):
        h = matrix.evaluate(omega)
        steps = [int(a.value * 12) for a in omega]
        for i, row in enumerate(entries(matrix)):
            for j, poly in enumerate(row):
                want = sum((c * root_of_unity(12, sum(
                    e * k for e, k in zip(exps, steps)) % 12) for exps, c in poly.items()),
                    CyclotomicNumber.from_rational(0, 12))
                assert h[i, j] == want
        # the checked constructor agrees
        cyclotomic.HermitianMatrix([[h[i, j] for j in range(h.size)] for i in range(h.size)])
    # the same form with its last upper entry moved off its conjugate is refused
    rows = entries(matrix)
    rows[0][-1] = combine([(1, rows[0][-1]), (1, {(1,) + (0,) * (matrix.arity - 1): 1})])
    with pytest.raises(NotHermitian):
        laurent_matrix(matrix.arity, rows)


@st.composite
def maybe_hermitian_laurent(draw):
    """A mirrored Laurent matrix, g <= 3; when perturb, one entry gets a term more."""
    arity = draw(st.integers(1, 2))
    g = draw(st.integers(1, 3))
    rows = [[None] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = hermitian(laurent(arity, draw))
        for j in range(i + 1, g):
            rows[i][j] = laurent(arity, draw)
            rows[j][i] = conj(rows[i][j])
    if draw(st.booleans()):
        i, j = draw(st.integers(0, g - 1)), draw(st.integers(0, g - 1))
        rows[i][j] = combine([(1, rows[i][j]), (1, laurent(arity, draw))])
    return arity, rows


@settings(max_examples=120, deadline=None)
@given(maybe_hermitian_laurent(), st.data())
def test_laurent_matrix_is_refused_exactly_when_not_hermitian(case, data):
    arity, rows = case
    g = len(rows)
    # (j, i) is (i, j) with every exponent negated, coefficient for coefficient
    broken = any(rows[j][i] != conj(rows[i][j]) for i in range(g) for j in range(g))
    if broken:
        with pytest.raises(NotHermitian):
            laurent_matrix(arity, rows)
        return
    matrix = laurent_matrix(arity, rows)
    omega = tuple(Angle(Fraction(data.draw(st.integers(0, b - 1)), b))
                  for b in (data.draw(st.integers(1, 12)) for _ in range(arity)))
    h = matrix.evaluate(omega)
    # the checked constructor accepts it
    cyclotomic.HermitianMatrix([[h[i, j] for j in range(h.size)] for i in range(h.size)])
    assert matrix.inertia(omega) == inertia(h)


def test_orbit_cache_is_bounded(monkeypatch):
    q = {(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): -2, (1, 0, -1): 1}
    # the bound is the grid limit, which no command's grid outgrows
    assert laurent_matrix(3, [[hermitian(q)]])._orbit.cache_info().maxsize == MAX_GRID_CELLS
    # under a smaller bound the same cache evicts
    monkeypatch.setattr(cyclotomic, "MAX_GRID_CELLS", 1024)
    matrix = laurent_matrix(3, [[hermitian(q)]])
    # a first coordinate of 1/37 leaves each point alone in its orbit
    points = [(Angle(Fraction(1, 37)), Angle(Fraction(b, 37)), Angle(Fraction(c, 37)))
              for b in range(37) for c in range(37)]
    maxsize = matrix._orbit.cache_info().maxsize
    assert maxsize == cyclotomic.MAX_GRID_CELLS < len(points)
    first = [matrix.inertia(om) for om in points]
    assert matrix._orbit.cache_info().currsize <= maxsize
    for om, want in zip(points[:20], first):  # long evicted
        assert matrix.inertia(om) == inertia(matrix.evaluate(om)) == want
        for conj in conjugates(om, 37):
            assert matrix.inertia(conj) == inertia(matrix.evaluate(conj))


def test_orbit_cache_does_not_keep_its_matrix_alive():
    matrix = LaurentMatrix(1, 1, {(0,): [[2]]})
    assert matrix.inertia((Angle(Fraction(1, 5)),)) == (1, 0, 0)
    ref = weakref.ref(matrix)
    del matrix
    assert ref() is None


# ---------------------------------------------------------------------------
# the constant common kernel, split off before elimination
# ---------------------------------------------------------------------------

SMALL_LEVELS = [n for n in range(1, 61) if _totient(n) <= 24]


def stacked_rank(matrix):
    """The rank of the coefficient matrices C_e of H(t) = sum_e t^e C_e stacked,
    by Fraction elimination on the columns: an oracle sharing no code with _kept."""
    rows = entries(matrix)
    exps = {e for row in rows for p in row for e in p}
    cols = [[Fraction(p.get(e, 0)) for e in exps for p in (row[j] for row in rows)]
            for j in range(matrix.size)]
    rank = 0
    while cols:
        pivot = next((c for c in cols if any(c)), None)
        if pivot is None:
            break
        k = next(i for i, x in enumerate(pivot) if x)
        cols = [[x - c[k] / pivot[k] * y for x, y in zip(c, pivot)]
                for c in cols if c is not pivot]
        rank += 1
    return rank


@st.composite
def congruent_to_a_padded_form(draw, levels=st.sampled_from(SMALL_LEVELS),
                               zeros=st.integers(0, 3)):
    """P^T (H' + 0_k) P at a character of a level drawn from levels (by default
    <= 60 and of degree <= 24): H' a random Hermitian Laurent matrix, g' <= 4,
    arity <= 2, singular draws included, k drawn from zeros, and P a random
    unimodular integer matrix, so the kernel leaves the coordinates."""
    arity = draw(st.integers(1, 2))
    small, k = draw(st.integers(0, 4)), draw(zeros)
    g = small + k
    d = [[{}] * g for _ in range(g)]
    for i in range(small):
        d[i][i] = hermitian(laurent(arity, draw))
        for j in range(i + 1, small):
            d[i][j] = laurent(arity, draw)
            d[j][i] = conj(d[i][j])
    p = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(draw(st.integers(0, 3 * g))):  # row_i += c * row_j, then a row permutation
        i, j = draw(st.integers(0, g - 1)), draw(st.integers(0, g - 1))
        if i != j:
            c = draw(st.integers(-2, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    if g:
        order = draw(st.permutations(range(g)))
        p = [p[i] for i in order]
    h = [[combine([(p[a][i] * p[b][j], d[a][b]) for a in range(g) for b in range(g)])
          for j in range(g)] for i in range(g)]
    level = draw(levels)
    omega = tuple(Angle(Fraction(draw(st.integers(0, level - 1)), level))
                  for _ in range(arity))
    return laurent_matrix(arity, h), omega


@settings(max_examples=80, deadline=None)
@given(congruent_to_a_padded_form())
@example((LaurentMatrix(1, 3, {}), (Angle(Fraction(1, 5)),)))
@example((LaurentMatrix(1, 2, {(0,): [[2, 0], [0, 1]], (1,): [[0, 1], [0, 0]],
                               (-1,): [[0, 0], [1, 0]]}), (Angle(Fraction(1, 7)),)))
def test_split_inertia_is_the_full_inertia(case):
    matrix, omega = case
    assert matrix.inertia(omega) == inertia(matrix.evaluate(omega))
    assert len(matrix._kept) == stacked_rank(matrix)


@settings(max_examples=60, deadline=None)
@given(congruent_to_a_padded_form(st.integers(1, 60), st.integers(1, 3)))
@example((LaurentMatrix(2, 3, {}), (Angle(Fraction(1, 59)), Angle(Fraction(5, 12)))))
@example((LaurentMatrix(1, 1, {}), (Angle(0),)))
def test_zero_and_rank_deficient_forms(case):
    # a zero form (no random block) is answered without an orbit: its inertia is
    # still the direct one, and the arity and level-bound refusals still come first
    matrix, omega = case
    assert matrix.inertia(omega) == inertia(matrix.evaluate(omega))
    with pytest.raises(ValueError, match=f"character has {matrix.arity + 1} colors"):
        matrix.inertia(omega + omega[:1])
    with pytest.raises(LevelMismatch, match="exceeds the supported bound"):
        matrix.inertia((Angle(Fraction(1, 8633)),) * matrix.arity)


@pytest.mark.parametrize("m,n", list(product(range(1, 5), repeat=2)))
def test_hopf_families_keep_their_rank(m, n):
    # the mn clasp generators satisfy m + n - 1 constant relations
    assert len(hopf_seifert_family(m, n).laurent._kept) == (m - 1) * (n - 1)


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixtures_keep_every_row(name):
    matrix = fixtures.fixture_matrix(name)
    assert matrix._kept == tuple(range(matrix.size))


# ---------------------------------------------------------------------------
# no global mpmath state changes
# ---------------------------------------------------------------------------

def test_sign_real_leaves_mpmath_precision_alone():
    before = (mpmath.iv.prec, mpmath.mp.prec)
    z = root_of_unity(8)
    c = z + z.conjugate()
    assert _level(8).sign(c.reduced()) == 1
    # needs refinement past the starting precision
    assert _level(8).sign((c * 10 ** 24 - 1414213562373095048801688).reduced()) == 1
    assert (mpmath.iv.prec, mpmath.mp.prec) == before


def test_family_signature_leaves_mpmath_precision_alone():
    before = (mpmath.iv.prec, mpmath.mp.prec)
    eta, zeta = Angle(Fraction(1, 7)), Angle(Fraction(2, 5))
    assert hopf_seifert_family(2, 3).signature((eta, zeta)) == sigma_k(2, eta) * sigma_k(3, zeta)
    assert (mpmath.iv.prec, mpmath.mp.prec) == before


# ---------------------------------------------------------------------------
# fixed-point cosines and the certified sign
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 420) | st.just(1155), st.integers(64, 4096))
@example(1, 64)
@example(3, 4096)
@example(1155, 4096)
def test_fixed_cosines_within_their_bound(n, prec):
    coss, e = _fixed_cosines(n, prec)
    assert len(coss) == n
    assert e <= 2  # the guard bits keep the bound tight, so it decides signs
    # cos(2*pi*j/n) = cos(2*pi*(n-j)/n): one reference value checks both
    with mpmath.workprec(prec + 200):
        scale = mpmath.mpf(2) ** prec
        for j in range(n // 2 + 1):
            want = scale * mpmath.cospi(mpmath.mpf(2 * j) / n)
            for k in {j, (n - j) % n}:
                assert abs(coss[k] - want) <= e, (n, prec, k)


def _restated_bound(n, prec):
    """(g, pi's error, D, E) in ulps of 2^-w, each step of _fixed_cosines'
    docstring restated on its own."""
    g = prec.bit_length() + n.bit_length() + 8
    w = prec + g
    pi = pi_err = 0
    for x, weight in ((5, 16), (239, -4)):
        # 1. p_0 = floor(2^w / x), p_k = floor(p_(k-1) / x^2), up to the first p_K = 0;
        #    under 3 ulps for each term k < K, under 2 for the tail
        powers = [(1 << w) // x]
        while powers[-1]:
            powers.append(powers[-1] // (x * x))
        pi += weight * sum((-1) ** k * (p // (2 * k + 1)) for k, p in enumerate(powers))
        pi_err += abs(weight) * (3 * (len(powers) - 1) + 2)
    # 2. theta = floor(2 * pi / n)
    theta = 2 * pi // n
    # 3. t_k = floor(t_(k-1) * theta / k) and err_k, to the first t_K = 0 with
    #    theta / (K + 1) <= 1/2; D adds err_0 .. err_(K-1) and twice err_K
    errs, t = [0], 1 << w
    while True:
        k = len(errs)
        t = (t * theta >> w) // k
        errs.append((errs[-1] * theta >> w) // k + 2)
        if t == 0 and 2 * theta <= (k + 1) << w:
            break
    d = 2 * pi_err // n + 2 + sum(errs[:-1]) + 2 * errs[-1]
    # 4. E_j = E_(j-1) + floor(E_(j-1) * D / 2^w) + D + 2, one step per power of zeta
    big_e = 0
    for _ in range(n):
        big_e += (big_e * d >> w) + d + 2
    return g, pi_err, d, big_e


def _returning_locals(fn, *args):
    """fn(*args), and the locals of its frame as it returns."""
    seen = {}

    def on_return(frame, event, arg):
        if event == "return":
            seen.update(frame.f_locals)

    def on_call(frame, event, arg):
        if frame.f_code is fn.__code__:
            frame.f_trace_lines = False
            return on_return

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        value = fn(*args)
    finally:
        sys.settrace(before)
    return value, seen


@pytest.mark.parametrize("n, prec", [(1, 64), (2, 64), (7, 64), (12, 128), (60, 4096),
                                     (420, 256), (1155, 128), (1155, 1024)])
def test_fixed_cosines_bound_restated(n, prec):
    # e is 2 whenever E < 2^g, so a shrunken term would not show in it alone: pi's
    # error, D and E are compared as the function holds them when it returns, and
    # each is checked against the true value it bounds
    (coss, e), frame = _returning_locals(_fixed_cosines, n, prec)
    g, pi_err, d, big_e = _restated_bound(n, prec)
    assert (frame["g"], frame["pi_err"], frame["d"], frame["big_e"]) == (g, pi_err, d, big_e)
    assert e == (big_e >> g) + 2 == 2
    w = prec + g
    with mpmath.workprec(w + 200):
        scale = mpmath.mpf(2) ** w
        assert abs(frame["pi"] - scale * mpmath.pi) <= pi_err
        zeta = mpmath.expjpi(mpmath.mpf(2) / n) * scale
        assert abs(mpmath.mpc(frame["re"], frame["im"]) - zeta) <= d
        scale = mpmath.mpf(2) ** prec
        for j in range(n):
            assert abs(coss[j] - scale * mpmath.cospi(mpmath.mpf(2 * j) / n)) <= e, j


def _quadratic_irrational(level, k):
    """sqrt(k) in Q(zeta_level), from zeta_8, zeta_12 or zeta_5."""
    root = {2: 8, 3: 12, 5: 5}[k]
    z = root_of_unity(level, level // root)
    c = z + z.conjugate()
    return 2 * c + 1 if k == 5 else c


@pytest.mark.parametrize("level,k", [(8, 2), (40, 2), (120, 2), (840, 2),
                                     (12, 3), (420, 3), (5, 5), (1155, 5)])
@pytest.mark.parametrize("digits", [24, 60])
def test_sign_escalates_on_near_integers(level, k, digits, monkeypatch):
    # sqrt(k) * 10^digits lies within 1 of isqrt(k * 10^(2 digits)), so a
    # decision needs 2^prec > 10^digits > 2^(3 digits): the 64-bit table
    # cannot separate the difference from zero
    asked = []

    def recording(n, prec):
        asked.append(prec)
        return _fixed_cosines(n, prec)

    monkeypatch.setattr(cyclotomic, "_fixed_cosines", recording)
    lv = cyclotomic._Level(level)
    root = _quadratic_irrational(level, k)
    assert root * root - k == 0
    floor = math.isqrt(k * 10 ** (2 * digits))
    above = root * 10 ** digits - floor  # in (0, 1)
    assert lv.sign(above.reduced()) == 1
    assert lv.sign((above - 1).reduced()) == -1
    assert lv.sign((-above).reduced()) == -1
    assert asked[0] == 64 and max(asked) >= 2 ** (3 * digits).bit_length()
    assert asked == sorted(set(asked)), "each precision is built once per level"
