"""What the exact elimination computes on the way to an inertia, and the level cache.

`_inertia` keeps its working matrix Hermitian, so it reads each pivot row as
it stands: outside the zero-diagonal fold it conjugates nothing, it never
subtracts, and it inverts a pivot only when a nonzero column is left to
clear.  The level tables are kept within `_TABLE_CAP` entries in all.
"""

from fractions import Fraction

import pytest

from splicesig import cyclotomic, verify
from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import CyclotomicNumber, HermitianMatrix
from splicesig.torus import Angle


@pytest.fixture
def level_calls(monkeypatch):
    """Calls of the named _Level operations made from inside _inertia."""
    calls = {"inv": 0, "conj": 0, "sub": 0, "inertia": 0}
    inside = []
    for name in ("inv", "conj", "sub"):
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
    assert h.inertia() == (2, 2, 0)
    assert level_calls["inv"] == 0


def test_dense_definite_matrix_inverts_all_but_the_last_pivot(level_calls):
    # diagonally dominant, so every pivot is nonzero and the fold never runs
    z = CyclotomicNumber.root_of_unity(12)
    g = 4
    h = HermitianMatrix([[_num(10) if i == j else (z if i < j else z.conjugate())
                          for j in range(g)] for i in range(g)])
    assert h.inertia() == (g, 0, 0)
    assert level_calls["inv"] == g - 1
    assert level_calls["conj"] == 0


def test_hopf_oracle_inertia_never_subtracts(level_calls):
    assert verify.hopf_oracle().passed
    assert level_calls["inertia"] > 0
    assert level_calls["sub"] == 0


def test_level_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_levels", {})
    v = [[-1, 1], [0, -1]]
    trefoil = SeifertFamily(1, {(1,): v, (-1,): [list(r) for r in zip(*v)]}, basis=True)
    omega = (Angle(Fraction(504, 1009)),)
    before = trefoil.signature_nullity(omega)
    for n in (997, 991, 983, 977):  # about 10^6 table entries each
        cyclotomic._level(n)
    kept = cyclotomic._levels
    assert sum(lv.n * lv.deg for lv in kept.values()) <= cyclotomic._TABLE_CAP
    assert 1009 not in kept and 977 in kept
    assert trefoil.signature_nullity(omega) == before
