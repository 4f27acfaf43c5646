"""Torus-link bases, the cabling step, and the univariate reduction.

The lattice count is validated against an independent oracle: the exact
signature of the symmetrized Seifert matrix of the trefoil, evaluated through
the cyclotomic machinery.  The cabling step is validated by reconstructing a
worked fixture table, and the reduction formula by the Hopf identity.
"""

from fractions import Fraction
from itertools import product

import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from splicesig.cables import cable_step, default_torus_base, hirzebruch, univariate_reduction
from splicesig.cyclotomic import CyclotomicNumber, HermitianMatrix
from splicesig.errors import GuardViolated, InvalidParams, MissingBaseEvaluator
from splicesig.fixtures import fixture_sig, fixture_table
from splicesig.hopf import hopf_sig_fn, sigma_k
from splicesig.splice import SigFn, cable_parallel, merge_colors, zero_fn
from splicesig.torus import UNIT, Angle, ind


def ang(num, den):
    return Angle(Fraction(num, den))


def seifert_lt_signature(v_matrix, *, omega, level):
    """Oracle: exact signature of (1-wbar)V + (1-w)V^T at a root of unity."""
    g = len(v_matrix)
    k = level // omega.denominator * omega.numerator
    w = CyclotomicNumber(level, [int(j == k) for j in range(level)])
    one = CyclotomicNumber.from_rational(1, level)
    a, b = one - w.conjugate(), one - w
    rows = [[a * CyclotomicNumber.from_rational(v_matrix[i][j], level)
             + b * CyclotomicNumber.from_rational(v_matrix[j][i], level)
             for j in range(g)] for i in range(g)]
    pos, neg, _ = HermitianMatrix(rows).inertia()
    return pos - neg


def reference_hirzebruch(p, q, zeta):
    """b - a by the plain double loop over all (p-1)(q-1) lattice points."""
    theta = zeta.value
    if theta > Fraction(1, 2):
        theta = 1 - theta
    a = b = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s == theta or s == theta + 1:
                continue  # tie: neither side
            if theta < s < theta + 1:
                a += 1
            else:
                b += 1
    return b - a


def reference_rows(p, q, zeta):
    """b - a by one interval per lattice row, in exact rational arithmetic."""
    theta = zeta.value
    if theta > Fraction(1, 2):
        theta = 1 - theta
    p, q = min(p, q), max(p, q)
    a = ties = 0
    for i in range(1, p):
        low = q * (theta - Fraction(i, p))
        first, last = max(1, math.floor(low) + 1), min(q - 1, math.ceil(low) + q - 1)
        a += max(0, last - first + 1)
        if low.denominator == 1:
            ties += (1 <= low <= q - 1) + (1 <= low + q <= q - 1)
    return (p - 1) * (q - 1) - 2 * a - ties


class TestHirzebruch:
    def test_hand_counts(self):
        assert hirzebruch(2, 3, ang(1, 2)) == -2
        assert hirzebruch(2, 3, ang(1, 12)) == 0
        assert hirzebruch(1, 9, ang(1, 3)) == 0  # empty lattice

    def test_against_trefoil_oracle(self):
        trefoil_v = [[-1, 1], [0, -1]]
        for k in range(1, 12):
            want = seifert_lt_signature(trefoil_v, omega=ang(k, 12), level=12)
            assert hirzebruch(2, 3, ang(k, 12)) == want, k

    def test_against_cinquefoil_oracle(self):
        # (2,5)-torus knot, Seifert matrix of the standard genus-2 surface
        v = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        for k in range(1, 10):
            want = seifert_lt_signature(v, omega=ang(k, 10), level=10)
            assert hirzebruch(2, 5, ang(k, 10)) == want, k

    def test_symmetries(self):
        for p, q in [(2, 3), (3, 4), (2, 5), (3, 5), (4, 7)]:
            for num in range(1, 16):
                z = ang(num, 16)
                assert hirzebruch(p, q, z) == hirzebruch(q, p, z)
                assert hirzebruch(p, q, z) == hirzebruch(p, q, z.conjugate())

    def test_tie_angles_counted_neither_side(self):
        # theta = 5/6 hits i/p + j/q = 1/2 + 1/3 exactly on conjugation to 1/6:
        # the pair (1,1) joins the nullity, leaving one lattice point on each side
        assert hirzebruch(2, 3, ang(1, 6)) == -1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 200),
           st.sampled_from([None, "pq", "2pq"]))
    def test_row_count_matches_double_loop(self, p, q, num, den_kind):
        assume(math.gcd(p, q) == 1)
        # denominators p*q and 2*p*q put theta and theta + 1 on lattice sums
        den = {None: 97, "pq": p * q, "2pq": 2 * p * q}[den_kind]
        assume(num % den != 0)
        z = ang(num % den, den)
        assert hirzebruch(p, q, z) == reference_hirzebruch(p, q, z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 199), st.integers(1, 199), st.data())
    def test_floor_sums_match_row_count(self, p, q, data):
        assume(math.gcd(p, q) == 1 and p * q > 1)
        # the denominator divides p*q, so ties occur
        z = ang(data.draw(st.integers(1, p * q - 1)), p * q)
        assert hirzebruch(p, q, z) == reference_rows(p, q, z)

    def test_large_coprime_pair_is_fast(self):
        start = time.perf_counter()
        assert hirzebruch(1000003, 1000005, ang(1, 3)) == -444448222228
        assert time.perf_counter() - start < 1.0

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            hirzebruch(2, 4, ang(1, 3))
        with pytest.raises(InvalidParams):
            hirzebruch(0, 3, ang(1, 3))
        with pytest.raises(InvalidParams):
            hirzebruch(2, 3, UNIT)


class TestCableParams:
    # default_torus_base and cable_step check the pattern (p, q, d) alike;
    # (0, 0, 1) and (1, 0, 0) hold no cable and are refused, not read as the
    # zero evaluator
    def test_coprimality_enforced(self):
        for pattern in [(2, 4, 1), (0, 0, 1), (0, 2, 1)]:  # p = 0 forces q = +-1
            with pytest.raises(InvalidParams, match="are not coprime"):
                default_torus_base(*pattern)
            with pytest.raises(InvalidParams, match="are not coprime"):
                cable_step(hopf_sig_fn(1, 2), *pattern)

    def test_degenerate_ok(self):
        assert default_torus_base(0, -1, 3).label == "unlink(1+3)"
        assert default_torus_base(1, 0, 2).label == "hopf_base(2,1)"
        assert cable_step(hopf_sig_fn(1, 2), 0, -1, 3).arity == 2 + 3

    def test_copies_positive(self):
        for d in (0, -1):
            with pytest.raises(InvalidParams, match=f"need at least one cable copy, got d={d}"):
                default_torus_base(1, 0, d)
            with pytest.raises(InvalidParams, match=f"need at least one cable copy, got d={d}"):
                cable_step(hopf_sig_fn(1, 2), 1, 0, d)

    @pytest.mark.parametrize("args", [(2.7, 3, 1), (2, 3.0, 1), (2, 3, "1"), (2, 3, 1.5)])
    def test_inexact_parameters_refused(self, args):
        # a float or a string is not truncated to an integer
        with pytest.raises(TypeError):
            default_torus_base(*args)
        with pytest.raises(TypeError):
            cable_step(hopf_sig_fn(1, 2), *args, storus=zero_fn(2))


# operands with a linking vector, built on demand
CABLED = {
    "hopf(1,1)": lambda: hopf_sig_fn(1, 1),
    "hopf(1,2)": lambda: hopf_sig_fn(1, 2),
    "hopf(1,3)": lambda: hopf_sig_fn(1, 3),
    "hopf(2,1)": lambda: hopf_sig_fn(2, 1),
    "merged hopf(1,2)": lambda: merge_colors(hopf_sig_fn(1, 2), 0),
    "torus-2-4": lambda: fixture_sig("torus-2-4"),
    "cable-4-2": lambda: fixture_sig("cable-4-2"),
}


class TestCableStep:
    def test_trivial_params_reduce_to_operand(self):
        f = hopf_sig_fn(1, 2)
        g = cable_step(f, 1, 0, 1)
        for a, b, c in product(range(4), repeat=3):
            om = (ang(a, 4), ang(b, 4), ang(c, 4))
            try:
                got = g(om)
            except GuardViolated:
                continue
            assert got == f((om[2],) + om[:2])

    def test_guard(self):
        f = hopf_sig_fn(1, 2)
        g = cable_step(f, 1, 0, 1)
        with pytest.raises(GuardViolated):
            g((ang(1, 3), ang(2, 3), UNIT))

    def test_missing_base(self):
        f = hopf_sig_fn(1, 2)
        with pytest.raises(MissingBaseEvaluator):
            cable_step(f, 2, 3, 2)

    def test_base_arity_checked(self):
        f = hopf_sig_fn(1, 2)
        with pytest.raises(MissingBaseEvaluator):
            cable_step(f, 2, 3, 2, storus=zero_fn(2))

    def test_builtin_d1_base(self):
        base = default_torus_base(2, 3, 1)
        assert base((UNIT, ang(1, 2))) == -2
        assert base((UNIT, UNIT)) == 0
        with pytest.raises(MissingBaseEvaluator):
            base((ang(1, 2), ang(1, 2)))

    def test_builtin_d1_base_mirrors(self):
        base = default_torus_base(-2, 3, 1)
        assert base((UNIT, ang(1, 2))) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.sampled_from([-1, 1]), st.integers(1, 4), st.booleans(),
           st.integers(1, 60), st.data())
    def test_builtin_hopf_bases_vanish(self, zero_p, sign, d, kept, n, data):
        # every p*q = 0 pattern is a generalized Hopf link H_{k,1} (or an
        # unlink): a one-sided defect factor vanishes identically, units
        # included
        p, q = (0, sign) if zero_p else (sign, 0)
        base = default_torus_base(p, q, d, kept)
        if p == 0:
            want = (2 + d, f"hopf_base(1+{d},1)") if kept else (1 + d, f"unlink(1+{d})")
        else:
            side = d + kept
            want = (1 + side, f"hopf_base({side},1)")
        assert (base.arity, base.label) == want
        om = tuple(ang(k, n) for k in data.draw(
            st.lists(st.integers(0, n - 1), min_size=base.arity, max_size=base.arity)))
        assert base(om) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(CABLED)), st.integers(1, 3), st.integers(1, 24),
           st.data())
    def test_longitude_cable_step_is_parallel_cabling(self, name, nu, n, data):
        # a (1,0)-cable with nu copies replaces the component by nu parallel
        # longitudes: cable_step at (w, z) is cable_parallel at (z, w), value
        # or refusal alike
        f = CABLED[name]()
        stepped = cable_step(f, 1, 0, nu)
        parallel = cable_parallel(f, nu)
        ks = data.draw(st.lists(st.integers(0, n - 1), min_size=stepped.arity,
                                max_size=stepped.arity))
        om = tuple(ang(k, n) for k in ks)
        w, z = om[:f.arity - 1], om[f.arity - 1:]

        def outcome(g, omega):
            try:
                return g(omega)
            except GuardViolated:
                return "guard"

        assert outcome(stepped, w + z) == outcome(parallel, z + w)

    def test_unknot_cable_reproduces_fixture_table(self):
        # the 2-colored (2,4)-torus link is the d=2, (p,q)=(1,2) cable over
        # the unknot; the base link axis+strands is the cored (4,2)-cable
        # fixture read with its core as the axis
        unknot = SigFn(1, lambda om: 0, linking=(), label="unknot")
        g = cable_step(unknot, 1, 2, 2, storus=fixture_sig("cable-4-2"))
        table = fixture_table("torus(2,4)")
        for a, b in product(range(1, 8), repeat=2):
            om = (ang(a, 8), ang(b, 8))
            if ((a + b) % 8) == 0:
                with pytest.raises(GuardViolated):
                    g(om)
                continue
            assert g(om) == table.value(om), (a, b)

    def test_core_kept_wires_extra_color(self):
        f = hopf_sig_fn(1, 2)
        g = cable_step(f, 0, 1, 2, core_kept=True)
        assert g.arity == 2 + 3  # two surviving colors + core + two copies


HOPF_LINKING = [[0, 1], [1, 0]]


class TestReductionInput:
    def test_validation(self):
        # the refusals and messages of the checked reduction input, in order
        refused = [
            ((0, (), (), []), "root order must be positive, got 0"),
            ((6, (0, 3), (0, 0), HOPF_LINKING), "exponents must satisfy 0 < n_i < n, got (0, 3)"),
            ((6, (2, 6), (0, 0), HOPF_LINKING), "exponents must satisfy 0 < n_i < n, got (2, 6)"),
            ((6, (2, 3), (0,), HOPF_LINKING), "p has length 1, expected 2"),
            ((6, (2, 3), (0, 0), [[0, 1]]), "linking matrix must be 2x2"),
            ((6, (2, 3), (0, 0), [[0, 1], [1]]), "linking matrix must be 2x2"),
            ((6, (2, 3), (0, 0), [[1, 1], [1, 0]]), "linking matrix must have zero diagonal"),
            ((6, (2, 3), (0, 0), [[0, 2], [1, 0]]), "linking matrix must be symmetric"),
            ((6, (2, 3), (0, 0), [[0, 2], [1, 1]]), "linking matrix must be symmetric"),
        ]
        for args, message in refused:
            with pytest.raises(InvalidParams) as err:
                univariate_reduction(*args, 0)
            assert str(err.value) == message
        assert univariate_reduction(6, (2, 3), (0, 0), HOPF_LINKING, 0) == 4

    @pytest.mark.parametrize("args", [
        (5.9, (2, 3), (0, 0), [[0, 1], [1, 0]]),
        (6, (1.5, 3), (0, 0), [[0, 1], [1, 0]]),
        (6, (2, 3), ("0", 0), [[0, 1], [1, 0]]),
        (6, (2, 3), (0, 0), [[0, 1.0], [1.0, 0]]),
    ], ids=["n", "ni", "p", "linking"])
    def test_inexact_input_refused(self, args):
        with pytest.raises(TypeError):
            univariate_reduction(*args, 0)


def p0_reduction(n, ni, linking, lw):
    """univariate_reduction's value at p = 0 and sigma_lbar = 0, given the
    weighted linking numbers lw: sum_i (n_i - 1) ind(lw_i, n) + sum_{i<j} lambda_ij."""
    mu = len(ni)
    return (sum((ni[i] - 1) * ind(lw[i], n) for i in range(mu))
            + sum(linking[i][j] for i in range(mu) for j in range(i + 1, mu)))


class TestWeightedLinking:
    # univariate_reduction reads lw_i = sum_j n_j * lambda_ij only through
    # ind(lw_i, n); each lw here is worked out by hand
    def test_zero_matrix(self):
        zero = [[0, 0], [0, 0]]
        assert univariate_reduction(4, (1, 2), (0, 0), zero, 0) \
            == p0_reduction(4, (1, 2), zero, (0, 0)) == 0

    def test_hopf_example(self):
        # lw = (3 * 1, 2 * 1): ind(3/6) = ind(2/6) = 1, so 1*1 + 2*1 + lk 1
        got = univariate_reduction(6, (2, 3), (0, 0), HOPF_LINKING, 0)
        assert got == p0_reduction(6, (2, 3), HOPF_LINKING, (3, 2)) == 4

    def test_general_row(self):
        lam = [[0, 1, -2], [1, 0, 3], [-2, 3, 0]]
        lw = (3 * 1 + 4 * (-2), 2 * 1 + 4 * 3, 2 * (-2) + 3 * 3)
        for n in range(5, 16):
            got = univariate_reduction(n, (2, 3, 4), (0, 0, 0), lam, 0)
            assert got == p0_reduction(n, (2, 3, 4), lam, lw)
        # at n = 9, ind(-5/9) = -1, ind(14/9) = 3, ind(5/9) = 1: 1*(-1) + 2*3 + 3*1 + (1 - 2 + 3)
        assert univariate_reduction(9, (2, 3, 4), (0, 0, 0), lam, 0) == 10


class TestUnivariateReduction:
    def test_hopf_identity_spot(self):
        hopf = hopf_sig_fn(1, 1)
        for n, n1, n2 in [(3, 1, 2), (5, 2, 3), (6, 4, 1)]:
            xi = ang(1, n)
            slbar = sigma_k(n1, xi) * sigma_k(n2, xi) - n1 * n2
            got = univariate_reduction(n, (n1, n2), (0, 0), HOPF_LINKING, slbar)
            assert got == hopf((ang(n1, n), ang(n2, n))) == 0

    def test_mu1_passthrough(self):
        assert univariate_reduction(5, (2,), (0,), [[0]], -4) == -4

    def test_inexact_signature_refused(self):
        with pytest.raises(TypeError):
            univariate_reduction(5, (2,), (0,), [[0]], 1.9)

    def test_mu2_small_linking_shortcut(self):
        # with p = 0 and |lk| <= 1 the correction is (n1 + n2 - 1) * lk
        for n, n1, n2, lk in [(5, 2, 3, 1), (7, 4, 2, -1), (4, 1, 3, 0)]:
            got = univariate_reduction(n, (n1, n2), (0, 0), [[0, lk], [lk, 0]], 10)
            assert got == 10 + (n1 + n2 - 1) * lk

    def test_torus_term_requires_evaluator(self):
        with pytest.raises(MissingBaseEvaluator):
            univariate_reduction(5, (2, 3), (1, 0), HOPF_LINKING, 0)

    def test_torus_term_plumbing(self):
        # the evaluator for color i receives (xi^{lw_i}, xi) and its value is
        # subtracted
        seen = []

        def fake(upsilon, xi):
            seen.append((upsilon, xi))
            return 11

        base = univariate_reduction(5, (2, 3), (0, 0), HOPF_LINKING, 0)
        got = univariate_reduction(5, (2, 3), (1, 0), HOPF_LINKING, 0, {0: fake})
        assert seen == [(ang(3, 5), ang(1, 5))]
        assert got == base - 11
