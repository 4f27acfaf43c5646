"""Generalized Hopf links: closed forms against the explicit Seifert family.

The family of the standard C-complex (one generator per pair of copies,
redundant by design) is the oracle for every closed form: signature,
nullity and spectrum.  Module tests run small grids; the wide grids run in
the acceptance suite.
"""

import cmath
import functools
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splicesig import cyclotomic, hopf, verify
from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import LaurentMatrix
from splicesig.errors import BoundaryCharacter
from splicesig.hopf import (certify_spectrum, hopf_nullity, hopf_seifert_family,
                            hopf_sig_fn, hopf_signature, hopf_spectrum, sigma_k,
                            unlink_family)
from splicesig.torus import Angle


def ang(num, den):
    return Angle(Fraction(num, den))


@functools.lru_cache(maxsize=None)
def _hopf_family(m, n):
    return hopf_seifert_family(m, n)


class TestClosedForm:
    def test_one_sided_links_vanish(self):
        for m, n in [(1, 1), (3, 1), (5, 0), (1, 4)]:
            for k in range(1, 5):
                v = tuple(ang(k, 5) for _ in range(m))
                u = tuple(ang(3, 7) for _ in range(n))
                if min(m, n) <= 1:
                    assert hopf_signature(v, u) == 0

    def test_one_angle_side_skips_the_other_defect(self, monkeypatch):
        # a cable's base H(1, nu): the defect of one angle is 0, and so the product
        sides = []
        monkeypatch.setattr(hopf, "defect1", lambda omega: sides.append(omega) or 0)
        u = (ang(1, 3), ang(2, 5), ang(1, 7))
        assert hopf_signature((ang(1, 5),), u) == 0
        assert sides == [(ang(1, 5),)]

    def test_hand_values(self):
        half = (ang(1, 2), ang(1, 2))
        third = (ang(1, 3), ang(1, 3))
        assert hopf_signature(half, half) == 0
        assert hopf_signature(third, third) == 1

    def test_permutation_invariance(self):
        v = (ang(1, 5), ang(2, 5), ang(4, 5))
        u = (ang(1, 3), ang(2, 3))
        base = hopf_signature(v, u)
        for pv in permutations(v):
            for pu in permutations(u):
                assert hopf_signature(pv, pu) == base

    def test_sig_fn_refuses_negative_counts(self):
        for m, n in [(-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="need at least one copy on each side"):
                hopf_sig_fn(m, n)

    def test_sig_fn_needs_a_copy_on_each_side(self):
        # refused when built, as its nullity would refuse every character
        for m, n in [(0, 2), (2, 0), (0, 0)]:
            with pytest.raises(ValueError, match="need at least one copy on each side"):
                hopf_sig_fn(m, n)

    def test_against_seifert_oracle_small(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            fam = hopf_seifert_family(m, n)
            for a, b in product(range(1, 6), repeat=2):
                eta, zeta = ang(a, 6), ang(b, 6)
                assert fam.signature((eta, zeta)) == sigma_k(m, eta) * sigma_k(n, zeta)


class TestSigmaK:
    def test_values(self):
        assert sigma_k(2, ang(1, 2)) == 0
        assert sigma_k(3, ang(1, 3)) == -1
        assert sigma_k(0, ang(1, 5)) == 0

    def test_matches_defect_on_diagonal(self):
        from splicesig.torus import defect
        for k in range(1, 5):
            for num in range(1, 8):
                x = ang(num, 8)
                assert sigma_k(k, x) == defect((1,) * k, (x,) * k)


class TestNullity:
    def test_four_cases(self):
        half2 = (ang(1, 2), ang(1, 2))
        third2 = (ang(1, 3), ang(1, 3))
        assert hopf_nullity(half2, half2) == 1      # both sums integral
        assert hopf_nullity(third2, third2) == 0    # neither
        assert hopf_nullity(half2, third2) == 1     # n-1 with eta integral
        assert hopf_nullity(third2, half2) == 1     # m-1
        assert hopf_nullity((ang(1, 3),) * 3, half2) == 2  # m+n-3

    def test_generic_character_zero(self):
        eta = (ang(1, 7), ang(2, 7), ang(3, 7))
        zeta = (ang(1, 5),)
        assert hopf_nullity(eta, zeta) == 0

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryCharacter):
            hopf_nullity((Angle(0), ang(1, 3)), (ang(1, 3),))

    def test_needs_a_copy_on_each_side(self):
        for eta, zeta in [((), (ang(1, 3),)), ((ang(1, 3),), ()), ((), ())]:
            with pytest.raises(ValueError, match="at least one copy"):
                hopf_nullity(eta, zeta)
            with pytest.raises(ValueError, match="at least one copy"):
                hopf_seifert_family(len(eta), len(zeta))

    def test_sig_fn_nullity_checks_the_arity(self):
        # the sides are cut from one character, so a wrong length is refused, not split
        for size in (3, 5):
            with pytest.raises(ValueError, match=f"character has {size} colors, hopf.2,2. expects 4"):
                hopf_sig_fn(2, 2).nullity((ang(1, 3),) * size)

    def test_against_family_kernel(self):
        # the redundant family has m+n-1 dependent generators: its kernel
        # exceeds the true nullity by exactly that much
        for m, n in [(1, 1), (2, 2), (3, 2)]:
            fam = hopf_seifert_family(m, n)
            for a, b in product(range(1, 4), repeat=2):
                eta, zeta = (ang(a, 4),) * m, (ang(b, 4),) * n
                _, _, kernel = fam.raw_inertia((ang(a, 4), ang(b, 4)))
                want = hopf_nullity(eta, zeta) + (m + n - 1)
                assert kernel == want, (m, n, a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 60), st.data())
    def test_against_family_kernel_at_random_levels(self, m, n, level, data):
        # the m + n - 1 excess is split off before elimination, so the kernel
        # must come out right at characters verify's sixths do not reach
        a, b = (data.draw(st.integers(1, level - 1)) for _ in range(2))
        _, _, kernel = _hopf_family(m, n).raw_inertia((ang(a, level), ang(b, level)))
        want = hopf_nullity((ang(a, level),) * m, (ang(b, level),) * n)
        assert kernel == want + (m + n - 1), (m, n, a, b, level)


class TestSeifertFamily:
    def test_smallest_family_is_zero_form(self):
        fam = hopf_seifert_family(1, 1)
        for eps in product((1, -1), repeat=2):
            assert fam.forms[eps] == ((0,),)

    def test_22_plus_plus_matrix(self):
        # generators ordered a_00, a_01, a_10, a_11; the four relations of
        # the construction, indices cyclic mod 2, summed on collision
        fam = hopf_seifert_family(2, 2)
        assert fam.forms[1, 1] == ((-1, 1, 1, -1),
                                   (1, -1, -1, 1),
                                   (1, -1, -1, 1),
                                   (-1, 1, 1, -1))

    def test_duality(self):
        for m, n in [(1, 2), (2, 2), (3, 2), (2, 4)]:
            fam = hopf_seifert_family(m, n)
            tpp = fam.forms[1, 1]
            tmm = fam.forms[-1, -1]
            g = len(tpp)
            assert all(tpp[i][j] == tmm[j][i] for i in range(g) for j in range(g))

    def test_boundary_data_is_unlinks(self):
        fam = hopf_seifert_family(2, 3)
        assert fam.boundary[(0,)].generators == 0
        f = fam.sig_fn()
        assert f((Angle(0), ang(1, 5))) == 0

    def test_linking_metadata(self):
        fam = hopf_seifert_family(3, 4)
        assert fam.linking == ((0, 12), (12, 0))

    def test_unlink_family(self):
        fam = unlink_family(4)
        assert fam.generators == 0


class TestSpectrum:
    def test_smallest_case_is_zero(self):
        assert hopf_spectrum(1, 1, ang(1, 3), ang(1, 5)) == [0.0]

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryCharacter):
            hopf_spectrum(2, 2, Angle(0), ang(1, 3))

    def test_matches_numeric_eigenvalues(self):
        # the closed form lists all mn eigenvalues of the assembled family,
        # including the m+n-1 structural zeros of the redundant generators
        for m, n in [(1, 2), (2, 2), (2, 3)]:
            fam = hopf_seifert_family(m, n)
            for a, b in product(range(1, 6), repeat=2):
                eta, zeta = ang(a, 6), ang(b, 6)
                want = sorted(hopf_spectrum(m, n, eta, zeta))
                got = sorted(fam.assemble((eta, zeta)).eigen_multiset_numeric())
                assert len(want) == len(got) == m * n
                assert all(math.isclose(x, y, rel_tol=0, abs_tol=1e-9)
                           for x, y in zip(want, got))

    def test_is_every_pairwise_product_ascending(self):
        # the m + n lambda factors combine into all mn products
        def lam(x, y):
            return (1j * (1 - x.conjugate()) * (1 - y.conjugate()) * (1 - x * y)).real

        def root(k, n):
            return cmath.exp(2j * cmath.pi * k / n)

        for m, n in product(range(1, 5), repeat=2):
            for a, b in product(range(1, 7), repeat=2):
                want = sorted(lam(root(a, 7), root(i, m)) * lam(root(b, 7), root(-j, n))
                              for i in range(m) for j in range(n))
                got = hopf_spectrum(m, n, ang(a, 7), ang(b, 7))
                assert got == sorted(got) and len(got) == m * n
                assert all(math.isclose(x, y, rel_tol=0, abs_tol=1e-12)
                           for x, y in zip(got, want))

    def test_any_level_on_the_open_torus(self):
        # the float view needs no cyclotomic field, so coprime levels far past
        # the exact tables' size still give the product formula
        def lam(x, y):
            return (1j * (1 - x.conjugate()) * (1 - y.conjugate()) * (1 - x * y)).real

        for (a, p), (b, q) in [((1, 37), (1, 41)), ((1, 101), (1, 103)),
                               ((500, 1009), (3, 1013))]:
            for m, n in [(1, 1), (2, 2), (3, 4)]:
                x, y = cmath.exp(2j * cmath.pi * a / p), cmath.exp(2j * cmath.pi * b / q)
                want = sorted(lam(x, cmath.exp(2j * cmath.pi * i / m))
                              * lam(y, cmath.exp(-2j * cmath.pi * j / n))
                              for i in range(m) for j in range(n))
                got = hopf_spectrum(m, n, ang(a, p), ang(b, q))
                assert len(got) == m * n
                assert all(math.isclose(u, w, rel_tol=0, abs_tol=1e-12)
                           for u, w in zip(got, want))

    def test_no_copies_on_a_side_is_an_empty_spectrum(self):
        assert hopf_spectrum(0, 2, ang(1, 3), ang(1, 3)) == []

    def test_sign_counts_give_signature(self):
        for a, b in product(range(1, 6), repeat=2):
            eta, zeta = ang(a, 6), ang(b, 6)
            spec = hopf_spectrum(2, 2, eta, zeta)
            s = sum(1 for x in spec if x > 1e-12) - sum(1 for x in spec if x < -1e-12)
            assert s == sigma_k(2, eta) * sigma_k(2, zeta)


@st.composite
def hopf_points(draw):
    """(m, n, eta, zeta): m, n <= 4, the angles at one of the levels 5, 7, 8, 9, 10, 12."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    level = draw(st.sampled_from((5, 7, 8, 9, 10, 12)))
    a, b = draw(st.integers(1, level - 1)), draw(st.integers(1, level - 1))
    return m, n, ang(a, level), ang(b, level)


def with_forms(family, change):
    """family with each form theta^eps replaced by change(eps, theta^eps)."""
    return SeifertFamily(family.arity, {eps: change(eps, [list(row) for row in mat])
                                        for eps, mat in family.forms.items()},
                         boundary=family.boundary, linking=family.linking)


class TestExactSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(hopf_points())
    def test_certified_and_equal_to_numeric_eigenvalues(self, case):
        # numpy's eigvalsh of the assembled form is the independent oracle
        m, n, eta, zeta = case
        fam = hopf_seifert_family(m, n)
        assert certify_spectrum(fam, m, n)
        got = fam.assemble((eta, zeta)).eigen_multiset_numeric()
        want = hopf_spectrum(m, n, eta, zeta)
        assert len(got) == len(want) == m * n
        assert np.allclose(got, want, rtol=0, atol=1e-9), (got, want)

    def test_doubled_forms_fail_verify_naming_the_case(self, monkeypatch):
        # every eigenvalue doubles; H(1,n) and H(m,1) are zero forms, so the
        # first case that can tell is H(2,2)
        monkeypatch.setattr(verify, "hopf_seifert_family", lambda m, n: with_forms(
            hopf_seifert_family(m, n), lambda eps, mat: [[2 * x for x in row] for row in mat]))
        result = verify.hopf_spectrum_check()
        assert not result.passed
        assert result.detail.startswith("H(2,2) at (1/12,1/12): ")

    def test_perturbed_prediction_fails(self, monkeypatch):
        # every factor lambda / i gains 1, so even lambda(x, 1), zero before, does
        # not: the zero form of H(1,1) no longer has the predicted eigenvalue
        monkeypatch.setattr(hopf, "_LAMBDA_TERMS", hopf._LAMBDA_TERMS + (((0, 0), 1),))
        assert not certify_spectrum(hopf_seifert_family(2, 3), 2, 3)
        result = verify.hopf_spectrum_check()
        assert not result.passed
        assert result.detail.startswith("H(1,1) at (1/12,1/12): ")

    def test_every_coordinate_of_the_eigenvector_is_checked(self):
        # theta^++ and theta^-- gain 1 at (1, 1): row 0 of H, hence every
        # mu = (H*v)_0, stays the same, but H*v = mu*v fails at coordinate 1
        def bump(eps, mat):
            if eps in ((1, 1), (-1, -1)):
                mat[1][1] += 1
            return mat
        fam = with_forms(hopf_seifert_family(2, 2), bump)
        assert not certify_spectrum(fam, 2, 2)

    def test_no_form_is_evaluated(self, monkeypatch):
        # one identity in H(t) per family: no H(omega), no cyclotomic field
        def refuse(*args, **kwargs):
            raise AssertionError("a form was evaluated")
        monkeypatch.setattr(SeifertFamily, "assemble", refuse)
        monkeypatch.setattr(LaurentMatrix, "evaluate", refuse)
        levels = set(cyclotomic._levels)
        assert verify.hopf_spectrum_check().passed
        assert set(cyclotomic._levels) <= levels

    @pytest.mark.parametrize("m, n", list(product(range(1, 7), repeat=2)))
    def test_every_family_up_to_six_is_proved(self, m, n):
        assert certify_spectrum(hopf_seifert_family(m, n), m, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_a_proved_family_has_the_predicted_eigenvalues(self, m, n, data):
        # soundness: bump one entry of theta^eps and its transpose in theta^-eps,
        # keeping duality; whatever is proved, numpy's eigvalsh must confirm
        eps = data.draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        r, c = data.draw(st.integers(0, m * n - 1)), data.draw(st.integers(0, m * n - 1))
        delta = data.draw(st.integers(-2, 2))

        def bump(e, mat):
            if e == eps:
                mat[r][c] += delta
            if e == (-eps[0], -eps[1]):
                mat[c][r] += delta
            return mat
        fam = with_forms(hopf_seifert_family(m, n), bump)
        level = data.draw(st.sampled_from((5, 7, 8, 9, 12)))
        points = data.draw(st.lists(st.tuples(st.integers(1, level - 1),
                                              st.integers(1, level - 1)), min_size=1, max_size=3))
        characters = [(ang(a, level), ang(b, level)) for a, b in points]
        if certify_spectrum(fam, m, n):
            for eta, zeta in characters:
                got = fam.assemble((eta, zeta)).eigen_multiset_numeric()
                want = hopf_spectrum(m, n, eta, zeta)
                assert np.allclose(got, want, rtol=0, atol=1e-9), (got, want)


class TestSigFnMetadata:
    def test_distinguished_linking(self):
        f = hopf_sig_fn(3, 2)
        assert f.linking == (0, 0, 1, 1)

    def test_plain_arity(self):
        assert hopf_sig_fn(2, 3).arity == 5
