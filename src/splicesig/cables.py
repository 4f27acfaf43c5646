"""Torus-link signatures by lattice count, and the univariate reduction.

hirzebruch(p, q, zeta) and torus_nullity(p, q, zeta) read the signature and
the nullity of the torus link T(p, q) off one lattice point count, for every
nonzero p and q; a negative p*q is the mirror.  The torus knot leaf of the
expression language reads both, and through the satellite form it gives
Litherland's cable knot: the (p, q)-cable of K is satellite(K, T(p, q), p).

univariate_reduction(n, ni, linking, sigma_lbar) recovers sigma_L at
(xi^{n_1}, ..., xi^{n_mu}) from the monochrome signature sigma_lbar at xi.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence, Tuple

from .errors import InvalidParams
from .torus import Angle, ind, linking_problem


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

def univariate_reduction(n: int, ni: Sequence[int], linking: Sequence[Sequence[int]],
                         sigma_lbar: int) -> int:
    """Multivariate signature at omega from the monochrome signature at xi.

    The character is w_i = xi^{n_i} with xi = exp(2*pi*i/n) and 0 < n_i < n;
    the auxiliary monochrome link Lbar replaces component i by n_i parallel
    copies, and linking is the full linking matrix lambda of the colored link
    (InvalidParams unless torus.linking_problem accepts it).  Inputs are read
    with operator.index, so a float or a string raises TypeError.

        sigma_L(w) = sigma_Lbar(xi) + sum_i (n_i - 1) ind(lw_i / n) + sum_{i<j} lambda_{ij}

    with lw_i = sum_j n_j * lambda_{ij} the weighted linking numbers.  Twisted
    copies ((n_i, n_i p_i)-cables, p_i != 0) would need a torus-link term per color.
    """
    n = operator.index(n)
    ni = tuple(operator.index(x) for x in ni)
    lam = tuple(tuple(operator.index(x) for x in row) for row in linking)
    if n < 1:
        raise InvalidParams(f"root order must be positive, got {n}")
    if any(not 0 < x < n for x in ni):
        raise InvalidParams(f"exponents must satisfy 0 < n_i < n, got {ni}")
    if problem := linking_problem(lam, len(ni)):
        raise InvalidParams(problem)
    total = operator.index(sigma_lbar)
    for i, row in enumerate(lam):
        total += (ni[i] - 1) * ind(sum(nj * lij for nj, lij in zip(ni, row)), n)
    return total + sum(row[j] for i, row in enumerate(lam) for j in range(i + 1, len(lam)))
