import cmath
import cProfile
import hashlib
import json
import math
import pstats
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import inertia
from splicesig import fixtures
from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import (
    CyclotomicNumber,
    HermitianMatrix,
    LaurentMatrix,
    _level,
    cyclotomic_polynomial,
)
from splicesig.errors import LevelMismatch, NotHermitian
from splicesig.hopf import hopf_seifert_family
from splicesig.torus import character


# ---------------------------------------------------------------------------
# independent inertia oracle for rational symmetric matrices
#
# char poly by Faddeev-LeVerrier over Fraction, then Descartes' rule of signs,
# which counts positive roots exactly when every root is real (always the case
# for a symmetric matrix).  No shared code with the implementation under test.
# ---------------------------------------------------------------------------

def charpoly(a):
    n = len(a)
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs  # descending powers: x^n + c1 x^(n-1) + ... + cn


def descartes(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def rational_inertia_oracle(a):
    p = charpoly(a)
    nul = 0
    while p and p[-1] == 0:
        p.pop()
        nul += 1
    pos = descartes(p)
    neg = descartes([c if (len(p) - 1 - i) % 2 == 0 else -c for i, c in enumerate(p)])
    return pos, neg, nul


def test_oracle_sanity():
    assert rational_inertia_oracle([[Fraction(2)]]) == (1, 0, 0)
    assert rational_inertia_oracle([[Fraction(0)]]) == (0, 0, 1)
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert rational_inertia_oracle(a) == (1, 1, 0)
    b = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]  # rank 1, trace > 0
    assert rational_inertia_oracle(b) == (1, 0, 1)


# ---------------------------------------------------------------------------
# scalar arithmetic
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_polynomial(24) == [1, 0, 0, 0, -1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(7) == [1] * 7


def root_of_unity(n, k=1):
    """zeta_n^k, from its coefficients over 1, zeta_n, ..., zeta_n^(n-1)."""
    return CyclotomicNumber(n, [int(j == k % n) for j in range(n)])


def as_complex(x):
    """x's value in C, from its canonical pair over the power basis of zeta_N."""
    den, vec = x.reduced()
    return sum(c * cmath.exp(2j * cmath.pi * k / x.level) for k, c in enumerate(vec)) / den


def test_root_relations():
    z = root_of_unity(8)
    assert z * z * z * z + 1 == 0
    assert (z * z.conjugate()) == 1
    total = sum((root_of_unity(12, k) for k in range(12)),
                CyclotomicNumber.from_rational(0, 12))
    assert total == 0


def test_zero_test_is_canonical_not_coefficientwise():
    # 1 + z5 + z5^2 + z5^3 + z5^4 vanishes in C though no coefficient does
    s = CyclotomicNumber(5, [1] * 5)
    assert s == 0
    assert s == sum((root_of_unity(5, k) for k in range(5)),
                    CyclotomicNumber.from_rational(0, 5))
    assert abs(as_complex(s)) < 1e-12


def test_cross_level_equality():
    z8 = root_of_unity(8)
    z4 = root_of_unity(4)
    assert z8 * z8 == z4
    assert z8 != z4
    assert CyclotomicNumber.from_rational(3, 1) == CyclotomicNumber.from_rational(3, 12)


def test_conjugation_and_realness():
    z = root_of_unity(12)
    c = z + z.conjugate()  # 2cos(pi/6) = sqrt(3)
    assert c.conjugate() == c
    assert _level(12).sign(c.reduced()) == 1
    assert abs(as_complex(c).real - 3 ** 0.5) < 1e-12
    assert z.conjugate() != z


def test_sign_real_certified_on_small_values():
    # sqrt(2) - 1.41... style near-cancellations stay exact: 8*cos(pi/4)^2 - 4 = 0
    z = root_of_unity(8)
    c = z + z.conjugate()  # sqrt(2)
    assert c * c - 2 == 0
    assert _level(8).sign((c * c - 2).reduced()) == 0
    tiny = c * c * c - 2 * c - Fraction(1, 10 ** 12)  # c^3 = 2c, so this is -1e-12
    assert _level(8).sign(tiny.reduced()) == -1


def test_sign_real_refines_precision():
    # sqrt(2)*10^24 = 1414213562373095048801688.72...; separating it from its
    # integer part needs more than the starting 64 bits of precision
    z = root_of_unity(8)
    c = z + z.conjugate()
    approx = 1414213562373095048801688
    assert _level(8).sign((c * 10 ** 24 - approx).reduced()) == 1
    assert _level(8).sign((c * 10 ** 24 - approx - 1).reduced()) == -1


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=23))
def test_root_times_conjugate_is_one(n, k):
    z = root_of_unity(n, k % n)
    assert z * z.conjugate() - 1 == 0


@st.composite
def canonical_pairs(draw, level):
    """A canonical pair at level: zero, or sparse integers over a denominator
    dividing 12, so that den(acc) = den(a) * den(b) is drawn often."""
    lv = _level(level)
    vec = [0] * lv.deg
    for _ in range(draw(st.integers(0, 4))):
        vec[draw(st.integers(0, lv.deg - 1))] = draw(st.integers(-50, 50))
    return lv.reduce(draw(st.sampled_from([1, 2, 3, 4, 6, 12])), enumerate(vec))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), *[canonical_pairs(n)] * 3)))
def test_addmul_is_add_of_mul(case):
    n, acc, a, b = case
    lv = _level(n)
    assert lv.addmul(acc, a, b) == lv.add(acc, lv.mul(a, b))


def test_constructor_refuses_a_bad_level_or_length():
    with pytest.raises(ValueError, match="level must be a positive integer"):
        CyclotomicNumber(0, [])
    with pytest.raises(ValueError, match="need exactly 4 coefficients, got 3"):
        CyclotomicNumber(4, [1, 0, 0])


def test_level_mismatch_guard():
    z = root_of_unity(6)
    assert z.lift(12) == z
    with pytest.raises(LevelMismatch, match="cannot lift level 6 to non-multiple 8"):
        z.lift(8)


def test_level_bound_counts_the_table():
    # 1155 * phi(1155) = 554 400 table entries are built; 8633 * phi(8633)
    # (89 * 97, about 7.3e7) and a level past any table are refused at once
    assert _level(1155).deg == 480
    for n in (8633, 10 ** 30 + 7):
        start = time.perf_counter()
        with pytest.raises(LevelMismatch, match="exceeds the supported bound"):
            CyclotomicNumber.from_rational(1, n)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Hermitian matrices: inertia vs the oracle
# ---------------------------------------------------------------------------

def as_matrix(rows, level=1):
    return HermitianMatrix(
        [[CyclotomicNumber.from_rational(x, level) for x in row] for row in rows])


def test_hermitian_check():
    z = root_of_unity(8)
    one = CyclotomicNumber.from_rational(1, 8)
    with pytest.raises(NotHermitian):
        HermitianMatrix([[one, z], [z, one]])  # off-diagonals not conjugate
    with pytest.raises(ValueError, match="matrix must be square"):
        HermitianMatrix([[one, z]])
    HermitianMatrix([[one, z], [z.conjugate(), one]])  # fine


def test_rational_inertia_matches_oracle_fixed():
    cases = [
        [[2]],
        [[0]],
        [[0, 1], [1, 0]],
        [[1, 2], [2, 4]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    ]
    for rows in cases:
        frac = [[Fraction(x) for x in row] for row in rows]
        pos, neg, nul = rational_inertia_oracle(frac)
        assert inertia(as_matrix(rows)) == (pos, neg, nul), rows


def test_rational_inertia_matches_oracle_random():
    rng = random.Random(20260819)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < 0.3:
                    x = Fraction(0)
                a[i][j] = a[j][i] = x
        pos, neg, nul = rational_inertia_oracle(a)
        assert inertia(as_matrix(a)) == (pos, neg, nul), a


def test_inertia_zero_diagonal_blocks():
    # an all-zero diagonal forces the fold of an off-diagonal entry into the diagonal
    z = root_of_unity(8)
    zero = CyclotomicNumber.from_rational(0, 8)
    h = HermitianMatrix([[zero, z], [z.conjugate(), zero]])
    assert inertia(h) == (1, 1, 0)
    h3 = HermitianMatrix([
        [zero, z, zero],
        [z.conjugate(), zero, zero],
        [zero, zero, zero],
    ])
    assert inertia(h3) == (1, 1, 1)
    # [[0, B], [B*, 0]] has eigenvalues +-(singular values of B): B = [[1, z], [conj(z), 1]]
    # has rank 1, so two of the four eigenvalues are zero
    one = CyclotomicNumber.from_rational(1, 8)
    zc = z.conjugate()
    h4 = HermitianMatrix([
        [zero, zero, one, z],
        [zero, zero, zc, one],
        [one, z, zero, zero],
        [zc, one, zero, zero],
    ])
    assert inertia(h4) == (1, 1, 2)
    # B = [[1, z], [0, 1]] is invertible: no zero eigenvalue
    h4 = HermitianMatrix([
        [zero, zero, one, z],
        [zero, zero, zero, one],
        [one, zero, zero, zero],
        [zc, one, zero, zero],
    ])
    assert inertia(h4) == (2, 2, 0)


def test_inertia_congruence_invariance():
    # G* A G has the same signature and nullity for invertible G
    z = root_of_unity(12)
    zero = CyclotomicNumber.from_rational(0, 12)
    one = CyclotomicNumber.from_rational(1, 12)
    a = [
        [one + one, z, zero],
        [z.conjugate(), -one, z * z],
        [zero, (z * z).conjugate(), zero],
    ]
    h = HermitianMatrix(a)
    g = [
        [one, z, z * z - 3],
        [zero, one + one + one, z.conjugate()],
        [zero, zero, one],
    ]
    n = 3
    ga = [[sum((g[k][i].conjugate() * a[k][j] for k in range(n)),
               CyclotomicNumber.from_rational(0, 12)) for j in range(n)] for i in range(n)]
    gag = [[sum((ga[i][k] * g[k][j] for k in range(n)),
                CyclotomicNumber.from_rational(0, 12)) for j in range(n)] for i in range(n)]
    assert inertia(HermitianMatrix(gag)) == inertia(h)


def test_inertia_cross_check_numeric():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 4)
        level = rng.choice([4, 8, 12])
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(level)]
            diag = CyclotomicNumber(level, coeffs)
            entries[i][i] = diag + diag.conjugate()
            for j in range(i + 1, n):
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(level)]
                entries[i][j] = CyclotomicNumber(level, coeffs)
                entries[j][i] = entries[i][j].conjugate()
        h = HermitianMatrix(entries)
        eig = h.eigen_multiset_numeric()
        pos = sum(1 for v in eig if v > 1e-9)
        neg = sum(1 for v in eig if v < -1e-9)
        zer = sum(1 for v in eig if abs(v) <= 1e-9)
        assert (pos, neg, zer) == inertia(h)


def test_inertia_parity_and_bound():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3))
        pos, neg, nul = inertia(as_matrix(a))
        assert abs(pos - neg) + nul <= n
        assert (abs(pos - neg) + nul - n) % 2 == 0


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------

def test_laurent_matrix_checks_arity_of_every_exponent():
    for coeffs in ({(1,): [[1]]}, {(1,): [[0]]}, {(0, 0): [[1]], (1, 0, 0): [[0]]}):
        with pytest.raises(ValueError, match="arity"):
            LaurentMatrix(2, 1, coeffs)


def dumps(matrix):
    """H(t) as the JSON text that LaurentMatrix.dumps once wrote, read off the C_e:
    entry (i, j) lists its terms C_e[i][j] * t^e, ascending in e."""
    g = range(matrix.size)
    doc = {"variables": [f"t{i}" for i in range(matrix.arity)],
           "entries": [[[{"coeff": c[i][j], "exps": list(e)}
                         for e, c in sorted(matrix.coeffs.items()) if c[i][j]]
                        for j in g] for i in g]}
    return json.dumps(doc, indent=1, sort_keys=True)


# sha256 of dumps(H(t)), recorded when H(t) was a matrix of Laurent polynomials
# with Fraction terms, compiled by Laurent polynomial arithmetic
RECORDED_DUMPS = {
    "torus24": "7e168e49a124944810ac268f8845d4f20efeea95987dbf5e7c037226be5a0d75",
    "cable42": "fd74806802ea546559dbdba9c32ee68d4d1eb8a073f76bc836035f5a6a4caf86",
    "torus36": "808191a7b660bd968be2314c61ec80bf8717215282d29753270054972fa1b440",
    (1, 1): "9a2fc66c79489acdc156539c223662b1f4239bba02be64c0352a8131de6ea90f",
    (1, 2): "5845d2287983f7feabf253f9a186f6763e8140d00dfbc064d218fda0a528e7c3",
    (1, 3): "cf29ebd966f3092a92a5cb890e11ab4b8c59dbabbbab89fd91544993b86ec69c",
    (1, 4): "86ed179a4b3a3560ab5021d16fadfe3f5234dd0d6a821bf641d5446e7993bb2a",
    (2, 1): "5845d2287983f7feabf253f9a186f6763e8140d00dfbc064d218fda0a528e7c3",
    (2, 2): "bc1383ca928a50b46af9ab3861ac778f6aa0bc1727e2a64b7e41fe81fc6c2311",
    (2, 3): "bcf3541b693b53356e9051e44abae0afbd2057caa1c0153ce3d7d2117a0145ff",
    (2, 4): "d59c14207b4320d35593cf229dfecfa640584b96c83f91b482f6b6c0652c7474",
    (3, 1): "cf29ebd966f3092a92a5cb890e11ab4b8c59dbabbbab89fd91544993b86ec69c",
    (3, 2): "009669fe61036e74ef74c94730ae095e0b35967ce8b742b9a2891699404f9f60",
    (3, 3): "515cfce8cacc0272c7b99b64486758b1c15d51517f858d11ef821fd97d342a83",
    (3, 4): "bffc4fbe083c2d8baae690e8724176b3a8dcddcb3334bbb428dd969ba24e1bfb",
    (4, 1): "86ed179a4b3a3560ab5021d16fadfe3f5234dd0d6a821bf641d5446e7993bb2a",
    (4, 2): "c0f08ffed78079ef88378b9187893e7c49e1b1fdfd8ee39f1148992730221071",
    (4, 3): "85bac9f82fdcd94ad54ab2a6a23c9039310592e0b6ee3ace83f8cca268da5115",
    (4, 4): "fd6a70131f1c7b7107123b35ca64e9e77b51c0d6e620c530d851866ec5004c2b",
}
FIXTURE_MATRICES = {"torus24": "torus(2,4)", "cable42": "cable(4,2)+core",
                    "torus36": "torus(3,6)"}


@pytest.mark.parametrize("key", list(RECORDED_DUMPS), ids=str)
def test_dumps_match_the_recorded_text(key):
    if key in FIXTURE_MATRICES:
        matrix = fixtures.fixture_matrix(FIXTURE_MATRICES[key])
    else:
        matrix = hopf_seifert_family(*key).laurent
    assert hashlib.sha256(dumps(matrix).encode()).hexdigest() == RECORDED_DUMPS[key]


def test_compiling_forms_builds_no_fraction():
    # the first inertia call of each form also finds the columns it keeps
    points = {arity: character(",".join(["1/12"] * arity)) for arity in (1, 2, 3)}
    profile = cProfile.Profile()
    profile.enable()
    fixture_matrices = [fixtures.fixture_matrix(name) for name in FIXTURE_MATRICES.values()]
    for matrix in [hopf_seifert_family(4, 4).laurent] + fixture_matrices:
        matrix.inertia(points[matrix.arity])
    profile.disable()
    ran = {(path, name) for path, _, name in pstats.Stats(profile).stats}
    assert any(name == "laurent" for _, name in ran)  # the compile did run
    assert any(name == "_kept" for _, name in ran)  # and so did the split
    assert [name for path, name in ran if path.endswith("fractions.py")] == []


def test_laurent_matrix_eval_and_json():
    # t0 + 1/t0 - t1 - 1/t1
    m = LaurentMatrix(2, 1, {(1, 0): [[1]], (-1, 0): [[1]], (0, 1): [[-1]], (0, -1): [[-1]]})
    h = m.evaluate(character("1/8,1/2"))
    # 2cos(pi/4) - 2cos(pi) = sqrt(2) + 2 > 0
    assert inertia(h) == (1, 0, 0)
    # the one JSON form document is a family's: its H(t) survives the round trip
    fam = hopf_seifert_family(2, 3)
    again = SeifertFamily.from_json(json.loads(json.dumps(fam.to_json()))).laurent
    assert again.coeffs == fam.laurent.coeffs
    assert dumps(again) == dumps(fam.laurent)


def test_laurent_matrix_refuses_non_integer_exponents():
    with pytest.raises(TypeError, match="float"):
        LaurentMatrix(1, 1, {(1.5,): [[1]], (-1.5,): [[1]]})
    square = LaurentMatrix(1, 1, {(2,): [[1]], (-2,): [[1]]})
    assert square.coeffs == {(2,): ((1,),), (-2,): ((1,),)}


def test_laurent_matrix_refuses_non_integer_coefficients():
    # H(t) is integral: a float is inexact (not 3602879701896397/2^55) and a
    # Fraction has no place in it
    for c in (0.1, 1.0, Fraction(1, 10), "1/10"):
        with pytest.raises(TypeError):
            LaurentMatrix(1, 1, {(0,): [[c]]})
    assert LaurentMatrix(1, 1, {(0,): [[3]]}).coeffs == {(0,): ((3,),)}
    # nor does an exact scalar: a float coefficient or operand is refused
    tenth = CyclotomicNumber.from_rational(Fraction(1, 10), 4)
    for c in (0.1, 0.5):
        with pytest.raises(TypeError, match="not exact"):
            CyclotomicNumber.from_rational(c, 4)
        with pytest.raises(TypeError, match="not exact"):
            CyclotomicNumber(4, [c, 0, 0, 0])
        with pytest.raises(TypeError):
            tenth + c
    assert CyclotomicNumber(4, [Fraction(1, 10), 0, 0, 0]) == tenth


def test_laurent_matrix_eval_hermitian_guard():
    # t0 is real only at t0 = +-1, so it is no Hermitian form: refused when
    # built, not answered at the fixed points of conjugation
    with pytest.raises(NotHermitian):
        LaurentMatrix(1, 1, {(1,): [[1]]})
    m = LaurentMatrix(1, 1, {(1,): [[1]], (-1,): [[1]]})
    assert inertia(m.evaluate(character("1/2"))) == (0, 1, 0)


def test_laurent_matrix_refuses_a_character_of_the_wrong_length():
    m = LaurentMatrix(1, 1, {(1,): [[1]], (-1,): [[1]]})
    for omega in ((), character("1/2,1/3")):
        for call in (m.evaluate, m.inertia):
            with pytest.raises(ValueError, match=f"character has {len(omega)} colors, "
                                                 "matrix expects 1"):
                call(omega)


def test_trefoil_seifert_matrix_signature():
    # (1 - conj(w)) V + (1 - w) V^T for V = [[-1, 1], [0, -1]]
    v = [[-1, 1], [0, -1]]
    vt = [[v[j][i] for j in range(2)] for i in range(2)]
    m = LaurentMatrix.from_forms(1, {(1,): v, (-1,): vt})
    assert inertia(m.evaluate(character("1/2"))) == (0, 2, 0)
    # e^(2*pi*i/6) is a root of the Alexander polynomial: eigenvalues {0, -2}
    assert inertia(m.evaluate(character("1/6"))) == (0, 1, 1)
    assert inertia(m.evaluate(character("1/3"))) == (0, 2, 0)


def test_from_forms_refuses_forms_not_dual_or_not_square():
    v = [[-1, 1], [0, -1]]
    with pytest.raises(NotHermitian, match=r"entry \(1,0\)"):
        LaurentMatrix.from_forms(1, {(1,): v, (-1,): v})  # theta^- is not theta^+ transposed
    with pytest.raises(ValueError, match="every form must be 2x2"):
        LaurentMatrix.from_forms(1, {(1,): v, (-1,): [[-1, 0], [1]]})
    with pytest.raises(ValueError, match="every coefficient matrix must be 2x2"):
        LaurentMatrix(1, 2, {(0,): [[1, 0], [0]]})
