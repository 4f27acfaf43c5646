"""Seifert families: validation, assembly, signatures, nullity gating, JSON.

The bicolored assembly formula is pinned entry-by-entry against its expanded
form, and the general shape is cross-checked through the Hopf oracle tests;
here we also exercise the plumbing invariants: exact hermitian-ness, the
conjugation symmetry of the signature, congruence invariance of inertia, and
the boundary delegation of sig_fn.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from splicesig.ccomplex import SeifertFamily, assemble, nullity, signature
from splicesig.cyclotomic import CyclotomicNumber
from splicesig.errors import (BoundaryCharacter, InvalidFamily, NotHermitian,
                              NullityUnavailable)
from splicesig.hopf import hopf_seifert_family, unlink_family
from splicesig.torus import UNIT, Angle, character, conjugate_character


def ang(num, den):
    return Angle(Fraction(num, den))


def random_family(mu, g, rng, basis=False):
    """A duality-correct random family: draw half the sign vectors freely."""
    forms = {}
    for eps in product((1, -1), repeat=mu):
        if eps in forms:
            continue
        mat = [[rng.randrange(-3, 4) for _ in range(g)] for _ in range(g)]
        forms[eps] = mat
        neg = tuple(-e for e in eps)
        forms[neg] = [[mat[j][i] for j in range(g)] for i in range(g)]
    return SeifertFamily(mu, forms, basis=basis)


TREFOIL_V = [[-1, 1], [0, -1]]


def trefoil_family():
    vt = [[TREFOIL_V[j][i] for j in range(2)] for i in range(2)]
    return SeifertFamily(1, {(1,): TREFOIL_V, (-1,): vt}, basis=True,
                         label="trefoil")


class TestValidate:
    def test_hopf_families_clean(self):
        for m, n in [(1, 1), (2, 2), (3, 2)]:
            assert hopf_seifert_family(m, n).validate() == []

    def test_empty_family_clean(self):
        fam = SeifertFamily(1, {(1,): [], (-1,): []})
        assert fam.validate() == []

    def test_broken_duality_reported(self):
        fam = SeifertFamily(1, {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]})
        report = fam.validate()
        assert any("transpose" in line for line in report)

    def test_missing_sign_vector_reported(self):
        fam = SeifertFamily(2, {(1, 1): [[0]], (-1, -1): [[0]]})
        assert fam.validate()

    def test_shape_mismatch_reported(self):
        fam = SeifertFamily(1, {(1,): [[0, 0]], (-1,): [[0], [0]]})
        assert fam.validate()

    def test_asymmetric_linking_reported(self):
        fam = SeifertFamily(1, {(1,): [[0]], (-1,): [[0]]},
                            linking=[[0, 1], [2, 0]])
        assert fam.validate()


class TestAssemble:
    def test_mu1_at_minus_one(self):
        # (1-wbar)*(theta^+ - w*theta^-) at w = -1 is 2*(a + a) = [[4a]]
        a = 3
        fam = SeifertFamily(1, {(1,): [[a]], (-1,): [[a]]}, basis=True)
        h = assemble(fam, (ang(1, 2),))
        assert h.entries[0][0] == CyclotomicNumber.from_rational(4 * a, 2)

    def test_mu1_matches_symmetrized_seifert_matrix(self):
        # (1-wbar)V + (1-w)V^T, the classical Levine-Tristram form
        fam = trefoil_family()
        for k in range(1, 12):
            w = ang(k, 12)
            wc = CyclotomicNumber.from_angle(w, 12)
            one = CyclotomicNumber.from_rational(1, 12)
            aa, bb = one - wc.conjugate(), one - wc
            direct = [[aa * CyclotomicNumber.from_rational(TREFOIL_V[i][j], 12)
                       + bb * CyclotomicNumber.from_rational(TREFOIL_V[j][i], 12)
                       for j in range(2)] for i in range(2)]
            h = assemble(fam, (w,))
            for i in range(2):
                for j in range(2):
                    assert h.entries[i][j] == direct[i][j]

    def test_mu2_matches_expanded_formula(self):
        # (1-hbar)(1-zbar) * [t^{++} - z t^{+-} - h t^{-+} + hz t^{--}]
        rng = random.Random(20260819)
        fam = random_family(2, 2, rng)
        level = 6
        one = CyclotomicNumber.from_rational(1, level)

        def c(x):
            return CyclotomicNumber.from_rational(x, level)

        for a, b in product(range(1, 6), repeat=2):
            eta, zeta = ang(a, 6), ang(b, 6)
            h = assemble(fam, (eta, zeta))
            e = CyclotomicNumber.from_angle(eta, level)
            z = CyclotomicNumber.from_angle(zeta, level)
            pre = (one - e.conjugate()) * (one - z.conjugate())
            for i in range(2):
                for j in range(2):
                    want = pre * (c(fam.forms[1, 1][i][j])
                                  - z * c(fam.forms[1, -1][i][j])
                                  - e * c(fam.forms[-1, 1][i][j])
                                  + e * z * c(fam.forms[-1, -1][i][j]))
                    assert h.entries[i][j] == want

    def test_boundary_character_rejected(self):
        fam = trefoil_family()
        with pytest.raises(BoundaryCharacter):
            assemble(fam, (UNIT,))

    def test_empty_family_signature(self):
        fam = SeifertFamily(2, {eps: [] for eps in product((1, -1), repeat=2)},
                            basis=True)
        assert signature(fam, (ang(1, 3), ang(1, 5))) == 0
        assert nullity(fam, (ang(1, 3), ang(1, 5))) == 0

    def test_always_hermitian_for_valid_families(self):
        rng = random.Random(7)
        for mu, g in [(1, 3), (2, 2), (3, 2)]:
            fam = random_family(mu, g, rng)
            omega = tuple(ang(rng.randrange(1, 8), 8) for _ in range(mu))
            assemble(fam, omega)  # exact hermitian check inside

    def test_broken_duality_caught_at_assembly(self):
        fam = SeifertFamily(1, {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]})
        with pytest.raises(NotHermitian):
            assemble(fam, (ang(1, 3),))


class TestInvalidFamiliesRefuse:
    """Every invariant goes through the checked assembly: no numbers from bad data."""

    BAD = {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]}  # - is not the transpose of +

    def test_signature_raises(self):
        with pytest.raises(NotHermitian):
            SeifertFamily(1, self.BAD).signature((ang(1, 3),))

    def test_sig_fn_raises(self):
        with pytest.raises(NotHermitian):
            SeifertFamily(1, self.BAD).sig_fn()((ang(1, 3),))

    def test_raw_inertia_and_nullity_raise(self):
        fam = SeifertFamily(1, self.BAD, basis=True)
        with pytest.raises(NotHermitian):
            fam.raw_inertia((ang(1, 3),))
        with pytest.raises(NotHermitian):
            fam.signature_nullity((ang(1, 3),))


class TestSignatureNullity:
    def test_trefoil_values(self):
        fam = trefoil_family()
        # angle 1/6 is the Alexander root e^{i*pi/3}: eigenvalues {0, -2}
        expected = {1: (-1, 1), 2: (-2, 0), 3: (-2, 0)}  # angles k/6
        for k, (s, nu) in expected.items():
            assert signature(fam, (ang(k, 6),)) == s
            assert nullity(fam, (ang(k, 6),)) == nu

    def test_hopf22_value(self):
        fam = hopf_seifert_family(2, 2)
        assert signature(fam, (ang(1, 3), ang(1, 3))) == 1

    def test_conjugation_symmetry(self):
        rng = random.Random(11)
        fams = [hopf_seifert_family(2, 2), hopf_seifert_family(3, 2),
                random_family(2, 3, rng)]
        for fam in fams:
            for a, b in product(range(1, 6), repeat=2):
                om = (ang(a, 6), ang(b, 6))
                assert signature(fam, om) == signature(fam, conjugate_character(om))

    def test_nullity_gated_by_basis_flag(self):
        fam = hopf_seifert_family(2, 2)
        with pytest.raises(NullityUnavailable):
            nullity(fam, (ang(1, 3), ang(1, 3)))
        # raw inertia stays available for oracle use
        pos, neg, nul = fam.raw_inertia((ang(1, 3), ang(1, 3)))
        assert pos + neg + nul == 4

    def test_congruence_invariance(self):
        # unimodular change of basis leaves signature and nullity alone
        fam = trefoil_family()
        u = [[1, 1], [0, 1]]

        def congr(mat):
            # u^T mat u
            tmp = [[sum(u[k][i] * mat[k][l] for k in range(2)) for l in range(2)]
                   for i in range(2)]
            return [[sum(tmp[i][k] * u[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]

        fam2 = SeifertFamily(1, {eps: congr(fam.forms[eps]) for eps in fam.forms},
                             basis=True)
        for k in range(1, 12):
            om = (ang(k, 12),)
            assert fam.signature_nullity(om) == fam2.signature_nullity(om)


class TestSigFn:
    def test_open_torus_delegates_to_signature(self):
        fam = hopf_seifert_family(2, 2)
        f = fam.sig_fn()
        om = (ang(1, 3), ang(2, 5))
        assert f(om) == signature(fam, om)

    def test_boundary_uses_sublink_families(self):
        # the Hopf family ships unlink boundary data: unit slots give 0
        f = hopf_seifert_family(2, 3).sig_fn()
        assert f((UNIT, ang(1, 3))) == 0
        assert f((ang(1, 3), UNIT)) == 0
        assert f((UNIT, UNIT)) == 0

    def test_all_units_is_empty_link(self):
        # deleting the only color leaves the empty link: 0 without any table
        f = trefoil_family().sig_fn()
        assert f((UNIT,)) == 0

    def test_boundary_missing_raises(self):
        fam = random_family(2, 2, random.Random(3))
        f = fam.sig_fn()
        with pytest.raises(BoundaryCharacter):
            f((UNIT, ang(1, 3)))

    def test_distinguished_requires_linking(self):
        fam = random_family(2, 2, random.Random(5))  # no linking metadata
        with pytest.raises(InvalidFamily):
            fam.sig_fn(distinguished=True)

    def test_distinguished_from_linking_metadata(self):
        f = hopf_seifert_family(2, 3).sig_fn(distinguished=True)
        assert f.linking == (6,)


class TestJson:
    def test_round_trip(self):
        fam = hopf_seifert_family(2, 2)
        blob = fam.dumps()
        back = SeifertFamily.loads(blob)
        assert back.arity == fam.arity
        assert back.forms == fam.forms
        assert back.linking == fam.linking
        assert back.basis == fam.basis
        assert back.boundary.keys() == fam.boundary.keys()

    def test_unicode_minus_accepted(self):
        doc = {"arity": 1, "generators": 1,
               "forms": {"+": [[2]], "−": [[2]]}, "basis": True}
        fam = SeifertFamily.from_json(doc)
        assert fam.forms[(-1,)] == ((2,),)

    def test_generator_count_mismatch_rejected(self):
        doc = {"arity": 1, "generators": 3,
               "forms": {"+": [[2]], "-": [[2]]}, "basis": True}
        with pytest.raises(InvalidFamily):
            SeifertFamily.from_json(doc)

    def test_json_is_valid_json(self):
        blob = unlink_family(3).dumps()
        json.loads(blob)
