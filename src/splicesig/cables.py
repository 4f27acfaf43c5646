"""Torus-link signatures by lattice count, and the univariate reduction.

hirzebruch(p, q, zeta) and torus_nullity(p, q, zeta) read the signature and
the nullity of the torus link T(p, q) off one lattice point count, for every
nonzero p and q; a negative p*q is the mirror.  The torus knot leaf of the
expression language reads both, and through the satellite form it gives
Litherland's cable knot: the (p, q)-cable of K is satellite(K, T(p, q), p).

univariate_reduction(n, ni, p, linking, sigma_lbar, tilde=None) recovers
sigma_L at (xi^{n_1}, ..., xi^{n_mu}) from the monochrome signature
sigma_lbar at xi.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParams
from .torus import Angle, ind


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)), m > 0, in O(log m) steps.

    The Euclid-like recursion: take the integer parts of a/m and b/m out in
    closed form, then count the same lattice points by columns instead of
    rows, which swaps m and a.
    """
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def _lattice(p: int, q: int, zeta: Angle) -> Tuple[int, int]:
    """(signature, ties) of the torus link T(p, q) at zeta != 1, p, q != 0.

    Lattice point count: over M = {1..|p|-1} x {1..|q|-1}, with
    theta = Log(zeta),

        a = #{(i,j) : theta < i/p + j/q < theta + 1},
        b = #{(i,j) : i/p + j/q outside [theta, theta+1]},

    and the signature is b - a.  Sums hitting theta or theta + 1 exactly
    count toward neither: they are the ties, the nullity.  A negative p*q is
    the mirror, which flips the signature and keeps the ties.  The count is
    stated for theta in (0, 1/2]; for theta in (1/2, 1) the value at the
    conjugate angle is the same, so we reflect.  In row i,
    theta < s < theta + 1 says low < j < low + q with
    low = q*(theta - i/p) in (-q, q/2), so the row holds q - 1 - floor(low)
    points of a when low >= 0 and q - 1 + ceil(low) when low < 0.  Each of
    the two ranges of rows is one floor sum, and the ties (low a nonzero
    integer) are the solutions of one congruence, so the cost is logarithmic
    in p and q.  All arithmetic is on integers.
    """
    p, q = operator.index(p), operator.index(q)
    if p == 0 or q == 0:
        raise InvalidParams(f"need nonzero (p, q), got ({p}, {q})")
    if zeta.is_unit():
        raise InvalidParams("torus-link signature count needs zeta != 1")
    sign = 1 if p * q > 0 else -1
    p, q = abs(p), abs(q)
    u, v = zeta.numerator, zeta.denominator
    if 2 * u > v:
        u = v - u
    # row i has low = (top - step*i) / den, which is >= 0 exactly for i <= split;
    # theta <= 1/2 puts split = floor(theta*p) below p
    top, step, den = q * u * p, q * v, v * p
    split = u * p // v
    a = (p - 1) * (q - 1) \
        - _floor_sum(split, den, -step, top - step) \
        - _floor_sum(p - 1 - split, den, step, step * (split + 1) - top)
    # ties: rows 1 <= i <= p-1 with step*i = top (mod den), less the row
    # i = theta*p where low = 0, when theta*p is an integer
    g = math.gcd(step, den)
    ties = 0
    if top % g == 0:
        mod = den // g
        r = top // g * pow(step // g, -1, mod) % mod
        ties = (p - 1 - r) // mod - (-r) // mod - (u * p % v == 0)
    b = (p - 1) * (q - 1) - a - ties
    return sign * (b - a), ties


def hirzebruch(p: int, q: int, zeta: Angle) -> int:
    """Levine-Tristram signature of the torus link T(p, q) at zeta != 1:
    the lattice count of _lattice, for every nonzero p and q."""
    return _lattice(p, q, zeta)[0]


def torus_nullity(p: int, q: int, zeta: Angle) -> int:
    """Levine-Tristram nullity of T(p, q) at zeta != 1: the count's ties."""
    return _lattice(p, q, zeta)[1]


# ---------------------------------------------------------------------------
# multivariate -> univariate reduction
# ---------------------------------------------------------------------------

def univariate_reduction(n: int, ni: Sequence[int], p: Sequence[int],
                         linking: Sequence[Sequence[int]], sigma_lbar: int,
                         tilde: Optional[Mapping[int, Callable[[Angle, Angle], int]]] = None) -> int:
    """Multivariate signature at omega from the monochrome signature at xi.

    The character is w_i = xi^{n_i} with xi = exp(2*pi*i/n) and 0 < n_i < n;
    the auxiliary monochrome link Lbar is built by (n_i, n_i*p_i)-cabling each
    component, and linking is the full linking matrix lambda of the colored
    link, symmetric with zero diagonal (InvalidParams otherwise).  Inputs are
    read with operator.index, so a float or a string raises TypeError.

        sigma_L(w) = sigma_Lbar(xi) - sum_i tilde_storus_{n_i, n_i p_i}(u_i, xi)
                     + sum_i (n_i - 1) ind(lw_i / n) + sum_{i<j} lambda_{ij}

    with lw_i = sum_j n_j * lambda_{ij} the weighted linking numbers and
    u_i = xi^{lw_i}.  The torus correction for color i is only needed when
    p_i != 0 (otherwise the cable pattern is a generalized Hopf link with
    vanishing signature), so with p = 0 no tilde evaluators are required at
    all.  tilde maps a color index to a callable (u_i, xi) -> int.
    """
    n = operator.index(n)
    ni = tuple(operator.index(x) for x in ni)
    p = tuple(operator.index(x) for x in p)
    lam = tuple(tuple(operator.index(x) for x in row) for row in linking)
    if n < 1:
        raise InvalidParams(f"root order must be positive, got {n}")
    mu = len(ni)
    if any(not 0 < x < n for x in ni):
        raise InvalidParams(f"exponents must satisfy 0 < n_i < n, got {ni}")
    if len(p) != mu:
        raise InvalidParams(f"p has length {len(p)}, expected {mu}")
    if len(lam) != mu or any(len(row) != mu for row in lam):
        raise InvalidParams(f"linking matrix must be {mu}x{mu}")
    for i in range(mu):
        if lam[i][i] != 0:
            raise InvalidParams("linking matrix must have zero diagonal")
        if any(lam[i][j] != lam[j][i] for j in range(mu)):
            raise InvalidParams("linking matrix must be symmetric")
    xi = Angle.from_ratio(1, n)
    total = operator.index(sigma_lbar)
    for i in range(mu):
        lw = sum(nj * lij for nj, lij in zip(ni, lam[i]))
        if p[i] != 0:
            evaluator = None if tilde is None else tilde.get(i)
            if evaluator is None:
                raise InvalidParams(
                    f"color {i} has p_i = {p[i]} != 0; a reduced torus signature "
                    f"evaluator for ({ni[i]}, {ni[i] * p[i]}) is required")
            total -= evaluator(Angle.from_ratio(lw, n), xi)
        total += (ni[i] - 1) * ind(lw, n)
    total += sum(lam[i][j] for i in range(mu) for j in range(i + 1, mu))
    return total
