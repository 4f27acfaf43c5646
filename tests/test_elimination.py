"""What the exact elimination computes on the way to an inertia, and the level cache.

`_inertia` reads and writes only the upper triangle of its Hermitian working
matrix.  Outside the zero-diagonal fold it conjugates each entry of a cleared
column once, to read both h_ik and h_kj, and makes each update of an h_ij with
i <= j one `addmul`; it never subtracts, and it inverts a pivot only when a
nonzero column is left to clear.  It takes the same pivots, in the same order,
as the elimination on the full matrix kept here as the reference.  The level
tables are kept within `_TABLE_CAP` entries in all.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import inertia
from splicesig import cyclotomic, verify
from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import CyclotomicNumber, HermitianMatrix, _inertia, _level, _neg
from splicesig.torus import Angle


@pytest.fixture
def level_calls(monkeypatch):
    """Calls of the named _Level operations made from inside _inertia."""
    calls = {"inv": 0, "conj": 0, "sub": 0, "addmul": 0, "inertia": 0}
    inside = []
    for name in ("inv", "conj", "sub", "addmul"):
        real = getattr(cyclotomic._Level, name, None)

        def counted(self, *args, _name=name, _real=real):
            if inside:
                calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(cyclotomic._Level, name, counted, raising=False)
    real_inertia = cyclotomic._inertia

    def inertia(mat, lv):
        calls["inertia"] += 1
        inside.append(True)
        try:
            return real_inertia(mat, lv)
        finally:
            inside.pop()
    monkeypatch.setattr(cyclotomic, "_inertia", inertia)
    return calls


def _num(x, level=12):
    return CyclotomicNumber.from_rational(Fraction(x), level)


def test_diagonal_matrix_computes_no_inverse(level_calls):
    entries = [_num(2), _num(-3), _num(Fraction(1, 5)), _num(-7)]
    zero = _num(0)
    h = HermitianMatrix([[e if i == j else zero for j in range(4)]
                         for i, e in enumerate(entries)])
    assert inertia(h) == (2, 2, 0)
    assert level_calls["inv"] == 0


def test_dense_definite_matrix_inverts_all_but_the_last_pivot(level_calls):
    # diagonally dominant, so every pivot is nonzero and the fold never runs
    z = CyclotomicNumber(12, [0, 1] + [0] * 10)  # zeta_12
    g = 4
    h = HermitianMatrix([[_num(10) if i == j else (z if i < j else z.conjugate())
                          for j in range(g)] for i in range(g)])
    assert inertia(h) == (g, 0, 0)
    assert level_calls["inv"] == g - 1
    # one conj per cleared entry; one addmul per updated h_ij with i <= j, and
    # one more per cleared entry, whose h_ik * (-d)^-1 is a mul, an addmul onto 0
    assert level_calls["conj"] == g * (g - 1) // 2
    assert level_calls["addmul"] == (g - 1) * g * (g + 1) // 6 + g * (g - 1) // 2


def test_hopf_oracle_inertia_never_subtracts(level_calls):
    assert verify.hopf_oracle().passed
    assert level_calls["inertia"] > 0
    assert level_calls["sub"] == 0


def test_level_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_levels", {})
    v = [[-1, 1], [0, -1]]
    trefoil = SeifertFamily(1, {(1,): v, (-1,): [list(r) for r in zip(*v)]}, basis=True)
    omega = (Angle(Fraction(504, 1009)),)
    before = trefoil.raw_inertia(omega)
    for n in (997, 991, 983, 977):  # about 10^6 table entries each
        cyclotomic._level(n)
    kept = cyclotomic._levels
    assert sum(lv.n * lv.deg for lv in kept.values()) <= cyclotomic._TABLE_CAP
    assert 1009 not in kept and 977 in kept
    assert trefoil.raw_inertia(omega) == before


# ---------------------------------------------------------------------------
# the same pivots as the elimination on the full matrix
# ---------------------------------------------------------------------------

def full_inertia(rows, lv):
    """The elimination on the whole Hermitian matrix, kept as the reference:
    every h_ij is updated, and the fold writes column k and its conjugate row."""
    mat = [list(row) for row in rows]
    alive = list(range(len(mat)))
    pivots = []
    while alive:
        diag = [i for i in alive if not lv.is_zero(mat[i][i])]
        if diag:
            k = min(diag, key=lambda i: lv.size(mat[i][i]))
        else:
            pq = next(((p, q) for p in alive for q in alive if not lv.is_zero(mat[p][q])), None)
            if pq is None:
                break
            k, q = pq
            a_conj = lv.conj(mat[k][q])
            for i in alive:
                if i != k:
                    mat[i][k] = lv.add(mat[i][k], lv.mul(mat[i][q], a_conj))
                    mat[k][i] = lv.conj(mat[i][k])
            norm = lv.mul(mat[k][q], a_conj)
            mat[k][k] = lv.add(norm, norm)
        d = mat[k][k]
        pivots.append(d)
        alive.remove(k)
        col = [i for i in alive if not lv.is_zero(mat[i][k])]
        if col:
            row_k = mat[k]
            neg_dinv = lv.inv(_neg(d))
            for i in col:
                fi = lv.mul(mat[i][k], neg_dinv)
                row = mat[i]
                for j in col:
                    row[j] = lv.add(row[j], lv.mul(fi, row_k[j]))
    return tuple(pivots), len(alive)


LEVELS = (5, 8, 12, 60)


@st.composite
def scalars(draw, lv):
    """Zero or a sparse element of Q(zeta_N) with small numerator and denominator."""
    vec = [0] * lv.deg
    for _ in range(draw(st.integers(0, 2))):
        vec[draw(st.integers(0, lv.deg - 1))] = draw(st.integers(-3, 3))
    return lv.reduce(draw(st.integers(1, 3)), enumerate(vec))


def dot(lv, terms):
    """sum(a * b for a, b in terms), by add and mul."""
    out = lv.reduce(1, [])
    for a, b in terms:
        out = lv.add(out, lv.mul(a, b))
    return out


@st.composite
def hermitian_forms(draw):
    """(level, rows): a random Hermitian matrix, one of the form A*D*A^* of
    rank below its size, or one with a zero diagonal."""
    lv = _level(draw(st.sampled_from(LEVELS)))
    g = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "singular", "zero-diagonal"]))
    if kind == "singular":
        r = draw(st.integers(0, g - 1))
        a = [[draw(scalars(lv)) for _ in range(r)] for _ in range(g)]
        d = [lv.reduce(1, [(0, draw(st.integers(-3, 3)))]) for _ in range(r)]
        upper = [[dot(lv, [(lv.mul(a[i][m], d[m]), lv.conj(a[j][m])) for m in range(r)])
                  for j in range(g)] for i in range(g)]
    else:
        upper = [[draw(scalars(lv)) for _ in range(g)] for _ in range(g)]
        for i in range(g):
            if kind == "random":
                upper[i][i] = lv.add(upper[i][i], lv.conj(upper[i][i]))
            else:
                upper[i][i] = lv.reduce(1, [])
    rows = [[upper[i][j] if i <= j else lv.conj(upper[j][i]) for j in range(g)]
            for i in range(g)]
    return lv.n, rows


@settings(max_examples=150, deadline=None)
@given(hermitian_forms())
def test_upper_triangle_takes_the_same_pivots(case):
    n, rows = case
    lv = _level(n)
    want = full_inertia(rows, lv)
    assert _inertia(rows, lv) == want
    # nothing below the diagonal is read
    upper = [[e if i <= j else None for j, e in enumerate(row)] for i, row in enumerate(rows)]
    assert _inertia(upper, lv) == want


@settings(max_examples=60, deadline=None)
@given(hermitian_forms(), st.data())
def test_inertia_is_invariant_under_congruence(case, data):
    # P*H*P^* for a random invertible integer P: unit lower times unit upper
    # triangular, rows then permuted
    n, rows = case
    lv = _level(n)
    g = len(rows)
    ints = st.integers(-2, 2)
    low = [[1 if i == j else (data.draw(ints) if j < i else 0) for j in range(g)]
           for i in range(g)]
    up = [[1 if i == j else (data.draw(ints) if j > i else 0) for j in range(g)]
          for i in range(g)]
    perm = data.draw(st.permutations(range(g)))
    p = [[sum(low[perm[i]][m] * up[m][j] for m in range(g)) for j in range(g)]
         for i in range(g)]
    ints_at = [[lv.reduce(1, [(0, x)]) for x in row] for row in p]
    ph = [[dot(lv, [(ints_at[i][m], rows[m][j]) for m in range(g)]) for j in range(g)]
          for i in range(g)]
    php = [[dot(lv, [(ph[i][m], ints_at[j][m]) for m in range(g)]) for j in range(g)]
           for i in range(g)]
    assert lv.inertia(*_inertia(php, lv)) == lv.inertia(*_inertia(rows, lv))
