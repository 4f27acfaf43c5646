"""Torus-link base signatures, the cabling step, and the univariate reduction.

Cabling a component (replace it by d parallel (p,q)-curves on the boundary of
its tube) is a splice with the link V u dU(p,q): the d curves together with
the axis V of the complementary solid torus.  The splice calculus then gives

    sigma_L(w', w'') = f'(u'', w') + storus(u', w'') + defect_l'(w') * defect_l''(w'')

with l'' = (p, ..., p).  The catch is storus: no closed form is known for the
signature of V u dU(p,q) at an arbitrary multivariate character, so the base
evaluator is an explicit argument.  Built-in bases cover the degenerate
patterns and the d = 1 evaluation at axis character 1, where the classical
lattice point count of Hirzebruch applies.  A degenerate pattern (p*q = 0)
is a generalized Hopf link H_{k,1} or an unlink, and its signature
defect * defect vanishes because the defect of a single component is 0, so
its base is the zero evaluator.  Everything else must be supplied, e.g. as a
SeifertFamily fixture.

The pattern is passed as it is: cable_step(f, p, q, d, core_kept=False,
storus=None) and default_torus_base(p, q, d, core_kept=False) both refuse
d < 1 and gcd(p, q) != 1 with InvalidParams.  univariate_reduction(n, ni, p,
linking, sigma_lbar, tilde=None) recovers sigma_L at (xi^{n_1}, ...,
xi^{n_mu}) from the monochrome signature sigma_lbar at xi.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParams, MissingBaseEvaluator
from .splice import SigFn, linking_of, splice, zero_fn
from .torus import Angle, Character, ind


def _pattern(p: int, q: int, d: int) -> Tuple[int, int, int]:
    """A (dp, dq)-cabling pattern read exactly: d >= 1 copies, p and q coprime."""
    p, q, d = operator.index(p), operator.index(q), operator.index(d)
    if d < 1:
        raise InvalidParams(f"need at least one cable copy, got d={d}")
    if math.gcd(p, q) != 1:
        # covers (0, 0) and also forces |p| = 1 or |q| = 1 when the other is 0
        raise InvalidParams(f"(p, q) = ({p}, {q}) are not coprime")
    return p, q, d


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


def hirzebruch(p: int, q: int, zeta: Angle) -> int:
    """Levine-Tristram signature of the (p,q)-torus link U(p,q), p, q > 0 coprime.

    Lattice point count: over M = {1..p-1} x {1..q-1}, with theta = Log(zeta),

        a = #{(i,j) : theta < i/p + j/q < theta + 1},
        b = #{(i,j) : i/p + j/q outside [theta, theta+1]},

    and the signature is b - a.  Sums hitting theta or theta + 1 exactly
    count toward neither (they contribute to the nullity instead).  The count
    is stated for theta in (0, 1/2]; for theta in (1/2, 1) the value at the
    conjugate angle is the same, so we reflect.  In row i,
    theta < s < theta + 1 says low < j < low + q with
    low = q*(theta - i/p) in (-q, q/2), so the row holds q - 1 - floor(low)
    points of a when low >= 0 and q - 1 + ceil(low) when low < 0.  Each of
    the two ranges of rows is one floor sum, and the ties (low a nonzero
    integer) are the solutions of one congruence, so the cost is logarithmic
    in p and q.  All arithmetic is on integers.
    """
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise InvalidParams(f"need coprime positive (p, q), got ({p}, {q})")
    if zeta.is_unit():
        raise InvalidParams("torus-link signature count needs zeta != 1")
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
    return b - a


# ---------------------------------------------------------------------------
# built-in base evaluators for V u dU(p,q)
# ---------------------------------------------------------------------------

def _hirzebruch_base(p: int, q: int) -> SigFn:
    """Base evaluator for d = 1, valid only at axis character 1.

    At axis character 1 the axis color drops and what is left is the
    Levine-Tristram signature of the (p,q)-torus knot, given by the lattice
    count.  Negative p or q mirrors the knot and flips the sign; evaluation
    at any other axis character raises MissingBaseEvaluator.
    """

    def fn(omega: Character) -> int:
        axis, u = omega
        if not axis.is_unit():
            raise MissingBaseEvaluator(
                f"built-in d=1 torus base for ({p},{q}) covers axis character 1 "
                "only; supply a SeifertFamily evaluator for other characters")
        if u.is_unit():
            return 0
        sign = 1 if p * q > 0 else -1
        return sign * hirzebruch(abs(p), abs(q), u)

    return SigFn(2, fn, label=f"torus({p},{q})")


def default_torus_base(p: int, q: int, d: int, core_kept: bool = False) -> SigFn:
    """Pick a built-in base evaluator for V u [U u] dU(p,q), if one exists.

    p, q and d are read with operator.index, and InvalidParams refuses d < 1
    or gcd(p, q) != 1.  Component order: axis V, then the retained core if
    any, then the d copies.  With p = 0 the copies are meridians of the
    core: without it the link is an unlink, with it V and the copies each
    form a Hopf pair with the core, H_{1+d,1}.  With q = 0 they are
    longitudes: they and the core each form a Hopf pair with V, H_{d,1} or
    H_{d+1,1}.  Either way one side holds a single component, whose defect
    ind(+-theta) -+ ind(theta) is 0, so the signature is 0 at every
    character, units included.
    """
    p, q, d = _pattern(p, q, d)
    kept = bool(core_kept)
    if p == 0:
        return zero_fn(2 + d, f"hopf_base(1+{d},1)") if kept \
            else zero_fn(1 + d, f"unlink(1+{d})")
    if q == 0:
        return zero_fn(1 + d + kept, f"hopf_base({d + kept},1)")
    if d == 1 and not kept:
        return _hirzebruch_base(p, q)
    raise MissingBaseEvaluator(
        f"no built-in signature for the cable pattern d={d}, "
        f"(p,q)=({p},{q}), core_kept={kept}; "
        "supply a base evaluator (e.g. from a SeifertFamily)")


def cable_step(f: SigFn, p: int, q: int, d: int, core_kept: bool = False,
               storus: Optional[SigFn] = None) -> SigFn:
    """Replace the distinguished component of f by a (dp, dq)-cable.

    f needs a linking vector (ValueError otherwise), and (p, q, d) the checks
    of default_torus_base (InvalidParams otherwise).  Splices f with the base
    link V u dU(p,q) (axis first, then the copies; with core_kept the core U
    sits between them), read from storus with the linking vector lk(V, copy)
    = p, preceded by lk(V, U) = 1 when the core is kept.  The result takes
    (w', w'') where w' are the surviving colors of f and w'' the new colors,
    and raises GuardViolated when both raised characters equal 1.
    """
    linking_of(f, "cable_step operand")
    p, q, d = _pattern(p, q, d)
    if storus is None:
        storus = default_torus_base(p, q, d, core_kept)
    lam2 = ((1,) + (p,) * d) if core_kept else (p,) * d
    if storus.arity != 1 + len(lam2):
        raise MissingBaseEvaluator(
            f"base evaluator has arity {storus.arity}, cable pattern needs "
            f"{1 + len(lam2)} (axis + {len(lam2)} colors)")
    base = SigFn(storus.arity, storus.fn, linking=lam2,
                 label=storus.label or "torus base", nullity=storus.nullity)
    out = splice(f, base)
    out.label = (f"cable({f.label or '?'}, {d}x({p},{q})"
                 f"{', core kept' if core_kept else ''})")
    return out


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
                raise MissingBaseEvaluator(
                    f"color {i} has p_i = {p[i]} != 0; a reduced torus signature "
                    f"evaluator for ({ni[i]}, {ni[i] * p[i]}) is required")
            total -= evaluator(Angle.from_ratio(lw, n), xi)
        total += (ni[i] - 1) * ind(lw, n)
    total += sum(lam[i][j] for i in range(mu) for j in range(i + 1, mu))
    return total
