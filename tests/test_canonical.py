"""The integer form pipeline against independent references.

Canonical reduction and the power table are checked against a plain
long-division remainder over Fraction; the inertia that the integer path
computes for random Laurent-polynomial Hermitian matrices is checked against
numpy's eigvalsh on an independently evaluated complex matrix.  Certified
signs must leave global mpmath state alone.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from splicesig.cyclotomic import (
    CyclotomicNumber,
    LaurentMatrix,
    LaurentPoly,
    _level,
    _pdivmod_exact,
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


def test_scalar_canonical_form_is_the_reference_remainder():
    z = CyclotomicNumber.root_of_unity(15, 7)
    x = z * Fraction(3, 4) - z.conjugate() * 2 + Fraction(1, 6)
    terms = [(k, c * 12) for k, c in enumerate(x.coeffs)]
    assert as_fractions(x.reduced()) == reference_remainder(15, 12, terms)


# ---------------------------------------------------------------------------
# integer-path inertia vs numpy
# ---------------------------------------------------------------------------

def laurent(arity, draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(arity))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-3, 3))
    return LaurentPoly(arity, terms)


@st.composite
def hermitian_laurent_at_root(draw):
    arity = draw(st.integers(1, 2))
    g = draw(st.integers(1, 4))
    rows = [[None] * g for _ in range(g)]
    for i in range(g):
        q = laurent(arity, draw)
        rows[i][i] = q + q.conjugate()
        for j in range(i + 1, g):
            rows[i][j] = laurent(arity, draw)
            rows[j][i] = rows[i][j].conjugate()
    omega = tuple(Angle(Fraction(draw(st.integers(0, b - 1)), b))
                  for b in (draw(st.sampled_from([2, 3, 4, 5, 6, 8, 10, 12]))
                            for _ in range(arity)))
    return LaurentMatrix([f"t{i}" for i in range(arity)], rows), omega


def numeric_matrix(matrix, omega):
    """The complex matrix straight from the Laurent terms, in floating point."""
    def value(poly):
        total = 0j
        for exps, c in poly.terms.items():
            turns = float(sum(e * a.value for e, a in zip(exps, omega)))
            total += float(c) * cmath.exp(2j * cmath.pi * turns)
        return total
    return np.array([[value(p) for p in row] for row in matrix.entries], dtype=complex)


@settings(max_examples=80, deadline=None)
@given(hermitian_laurent_at_root())
def test_integer_inertia_matches_eigvalsh(case):
    matrix, omega = case
    eig = np.linalg.eigvalsh(numeric_matrix(matrix, omega))
    # decide only where the spectrum is clearly split from zero
    assume(all(abs(x) < 1e-9 or abs(x) > 1e-6 for x in eig))
    want = (sum(1 for x in eig if x > 1e-6), sum(1 for x in eig if x < -1e-6),
            sum(1 for x in eig if abs(x) < 1e-9))
    assert matrix.evaluate(omega).inertia() == want


# ---------------------------------------------------------------------------
# no global mpmath state changes
# ---------------------------------------------------------------------------

def test_sign_real_leaves_mpmath_precision_alone():
    before = (mpmath.iv.prec, mpmath.mp.prec)
    z = CyclotomicNumber.root_of_unity(8)
    c = z + z.conjugate()
    assert c.sign_real() == 1
    # needs refinement past the starting precision
    assert (c * 10 ** 24 - 1414213562373095048801688).sign_real() == 1
    assert (mpmath.iv.prec, mpmath.mp.prec) == before


def test_family_signature_leaves_mpmath_precision_alone():
    before = (mpmath.iv.prec, mpmath.mp.prec)
    eta, zeta = Angle(Fraction(1, 7)), Angle(Fraction(2, 5))
    assert hopf_seifert_family(2, 3).signature((eta, zeta)) == sigma_k(2, eta) * sigma_k(3, zeta)
    assert (mpmath.iv.prec, mpmath.mp.prec) == before
