"""Self-verification suites: exact, deterministic, each a few seconds at most.

Every suite recomputes its expected values from an independent route
(piecewise tables, Seifert-matrix oracles, closed forms) and compares
exactly; nothing is tuned to the implementation under test.  The CLI's
`verify` command runs these and exits non-zero on any failure.  The suites
share no result, so `run_suite` may run them in forked children, which
fill their own caches; criteria that read the same caches (the fixture
evaluators below, the Hopf families) share a child as one of _CACHE_GROUPS.
"""

import os
import pickle
from contextlib import suppress
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Callable, List, NamedTuple, Tuple

from .cables import hirzebruch, univariate_reduction
from .ccomplex import SeifertFamily
from .errors import GuardViolated
from .expr import parse
from .fixtures import fixture_sig, fixture_table
from .hopf import (certify_spectrum, hopf_nullity, hopf_seifert_family,
                   hopf_sig_fn, sigma_k)
from .splice import SigFn, merge_colors, splice, splice_knot
from .torus import Angle, defect, defect1, grid


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _angles(order: int) -> Tuple[Angle, ...]:
    """The angles k/order, k < order, built once per order; torus.grid walks the cells."""
    return tuple(Angle.from_ratio(k, order) for k in range(order))


@lru_cache(maxsize=None)
def _fixture(name: str) -> SigFn:
    """A fixture's evaluator, built once per process: its leaf caches serve every criterion."""
    return fixture_sig(name)


@lru_cache(maxsize=None)
def _family(m: int, n: int) -> SeifertFamily:
    """H_{m,n}'s Seifert family, built once per process: its orbit caches serve every criterion."""
    return hopf_seifert_family(m, n)


def _fail(name: str, detail: str) -> CriterionResult:
    return CriterionResult(name, False, detail)


def _raised(name: str, err: BaseException) -> CriterionResult:
    return _fail(name, f"raised {type(err).__name__}: {err}")


# -- 1 ----------------------------------------------------------------------

def referee_tables() -> CriterionResult:
    name = "referee-tables"
    checked = 0
    for fix, arity in (("torus(2,4)", 2), ("cable(4,2)+core", 3), ("torus(3,6)", 3)):
        table, sig = fixture_table(fix), _fixture(fix)
        for ks, om in grid(1, 8, arity):
            want, got = table.value(om), sig(om)
            if got != want:
                return _fail(name, f"{fix} at {ks}/8: got {got}, table says {want}")
            checked += 1
    return CriterionResult(name, True,
                           f"{checked} grid cells match the three piecewise tables exactly")


# -- 2 ----------------------------------------------------------------------

def referee_splice() -> CriterionResult:
    name = "referee-splice"
    lam1, lam2 = (2,), (1, 1)
    held, excluded = 0, 0
    angles = _angles(8)
    t36, t24, c42 = map(_fixture, ("torus(3,6)", "torus(2,4)", "cable(4,2)+core"))
    for (k0, k1, k2), om in grid(0, 8, 3):
        om1, om2 = om[:1], om[1:]
        lhs = t36(om)
        rhs = (t24((angles[(k1 + k2) % 8],) + om1)
               + c42((angles[(2 * k0) % 8],) + om2)
               + defect(lam1, om1) * defect(lam2, om2))
        diff = lhs - rhs
        guarded = (2 * k0) % 8 == 0 and (k1 + k2) % 8 == 0
        if not guarded:
            if diff != 0:
                return _fail(name, f"identity off by {diff} at {(k0, k1, k2)}/8")
            held += 1
        else:
            excluded += 1
            # on the open torus the excluded slice is off by exactly one;
            # with a unit coordinate color deletion restores agreement
            want = -1 if (k0 and k1 and k2) else 0
            if diff != want:
                return _fail(name, f"excluded triple {(k0, k1, k2)}/8: "
                                   f"discrepancy {diff}, expected {want}")
    if (held, excluded) != (496, 16):
        return _fail(name, f"unexpected triple partition {held}+{excluded}")
    return CriterionResult(name, True,
                           "identity exact at all 496 guard triples; the 16 excluded "
                           "triples show the discrepancy of exactly 1 on the open torus")


# -- 3 ----------------------------------------------------------------------

def hopf_oracle() -> CriterionResult:
    name = "hopf-oracle"
    cases = 0
    for m, n in product(range(1, 5), repeat=2):
        family = _family(m, n)
        for (a, b), (eta, zeta) in grid(1, 12, 2):
            got = family.signature((eta, zeta))
            want = sigma_k(m, eta) * sigma_k(n, zeta)
            if got != want:
                return _fail(name, f"H({m},{n}) at ({a}/12,{b}/12): "
                                   f"family {got} != closed form {want}")
            cases += 1
    return CriterionResult(name, True,
                           f"exact family signature equals the closed form in {cases} cases")


# -- 4 ----------------------------------------------------------------------

def hopf_spectrum_check() -> CriterionResult:
    name = "hopf-spectrum"
    for m, n in product(range(1, 4), repeat=2):
        if not certify_spectrum(_family(m, n), m, n):
            return _fail(name, f"H({m},{n}) at (1/12,1/12): exact eigenvalues "
                               f"not proved equal to the product formula")
    # a proof holds at every open character; counted on the open 12th-root grid
    return CriterionResult(name, True, f"exact eigenvalues equal the product formula "
                                       f"in {9 * 11 ** 2} cases")


# -- 5 ----------------------------------------------------------------------

def defect_lemma() -> CriterionResult:
    name = "defect-lemma"
    order = 24
    # flat grids: the cell ks/24 sits at the index whose base-24 digits are ks
    grids = {mu: [defect1(om) for _, om in grid(0, order, mu)] for mu in (1, 2, 3)}

    def moved(mu, slots, digits):
        """grids[mu] moved by the map of cells that takes the coordinate k at
        position p to digits[k] at position slots[p]."""
        index = [0]
        for slot in slots:
            weight = order ** (mu - 1 - slot)
            index = [i + digits[k] * weight for i in index for k in range(order)]
        return [grids[mu][i] for i in index]

    def first_change(mu, values, sign=1):  # the first ks with values != sign * grids[mu]
        cells = zip(grid(0, order, mu), grids[mu], values)
        return next((ks for (ks, _), v, w in cells if w != sign * v), None)

    # vanishing: at the unit character, and identically for mu <= 1
    if defect1(()) != 0:
        return _fail(name, "defect of the empty character is not 0")
    for mu in (1, 2, 3):
        if grids[mu][0] != 0:
            return _fail(name, f"defect at the unit character, mu={mu}")
    if any(grids[1]):
        return _fail(name, "defect not identically zero for mu=1")

    # conjugation antisymmetry
    neg = [(-k) % order for k in range(order)]
    for mu in (2, 3):
        ks = first_change(mu, moved(mu, range(mu), neg), -1)
        if ks is not None:
            return _fail(name, f"conjugation antisymmetry fails at {ks}, mu={mu}")

    # symmetric group invariance, through the adjacent transpositions (they generate S_mu)
    for mu in (2, 3):
        for p in range(mu - 1):
            slots = [*range(p), p + 1, p, *range(p + 2, mu)]
            ks = first_change(mu, moved(mu, slots, range(order)))
            if ks is not None:
                return _fail(name, f"permutation invariance fails at {ks}, mu={mu}")

    # stability under appending a unit coordinate: ks + (0,) sits at order * index(ks);
    # at mu = 0 it is defect1(()) = grids[1][0] = 0, checked above
    for mu in (1, 2):
        ks = first_change(mu, grids[mu + 1][::order])
        if ks is not None:
            return _fail(name, f"unit embedding fails at {ks}, mu={mu}")

    # stability under appending a conjugate pair; at mu = 0 the pair (e, -e)
    # is the transposed conjugate of itself, so the checks above make it 0
    for e in range(order):
        pair = e * order + neg[e]
        for k, v in enumerate(grids[1]):
            if grids[3][k * order * order + pair] != v:
                return _fail(name, f"conjugate-pair embedding fails at ({k},{e})/24")
    total = sum(map(len, grids.values()))
    return CriterionResult(name, True,
                           f"all five defect properties hold exhaustively on {total} "
                           f"grid points (24th roots, mu <= 3)")


# -- 6 ----------------------------------------------------------------------

def hirzebruch_sanity() -> CriterionResult:
    name = "hirzebruch"
    # H(omega) = (1 - conj(omega)) V + (1 - omega) V^T for the trefoil's Seifert matrix V
    trefoil = SeifertFamily(1, {(1,): [[-1, 1], [0, -1]], (-1,): [[-1, 0], [1, -1]]})
    for k, want in ((6, -2), (1, 0)):
        z = Angle.from_ratio(k, 12)
        got = hirzebruch(2, 3, z)
        oracle = trefoil.signature((z,))
        if got != want or got != oracle:
            return _fail(name, f"torus(2,3) at {k}/12: lattice {got}, "
                               f"matrix {oracle}, expected {want}")
    pairs = 0
    for p in range(1, 8):
        for q in range(1, 8):
            if gcd(p, q) != 1:
                continue
            for k, z in enumerate(_angles(41)[1:21], 1):
                if hirzebruch(p, q, z) != hirzebruch(q, p, z):
                    return _fail(name, f"symmetry fails for ({p},{q}) at {k}/41")
            pairs += 1
    return CriterionResult(name, True,
                           f"trefoil values match the Seifert-matrix oracle; p<->q "
                           f"symmetry holds for {pairs} coprime pairs at 20 angles")


# -- 7 ----------------------------------------------------------------------

def univariate_reduction_check() -> CriterionResult:
    name = "univariate-reduction"
    hopf = hopf_sig_fn(1, 1)
    cases = 0
    for n in range(2, 7):
        xi = Angle.from_ratio(1, n)
        for (n1, n2), om in grid(1, n, 2):
            closed = (1 - n1) * (1 - n2) - n1 * n2
            oracle = sigma_k(n1, xi) * sigma_k(n2, xi) - n1 * n2
            if closed != oracle:
                return _fail(name, f"sigma of the monochrome H({n1},{n2}) at 1/{n}: "
                                   f"{oracle} != {closed}")
            got = univariate_reduction(n, (n1, n2), [[0, 1], [1, 0]], closed)
            want = hopf(om)
            if got != want:
                return _fail(name, f"reduction at n={n}, (n1,n2)=({n1},{n2}): "
                                   f"{got} != direct value {want}")
            cases += 1
    return CriterionResult(name, True,
                           f"reduction reproduces the bicolored Hopf signature in "
                           f"{cases} cases, sigma of the pullback from the closed form")


# -- 8 ----------------------------------------------------------------------

def hopf_nullity_check() -> CriterionResult:
    name = "hopf-nullity"
    cases = 0

    def side_integral(s):
        return (Angle.from_ratio(1, s),) * s          # angles sum to 1

    def side_generic(s):
        return (Angle.from_ratio(1, 2 * s),) * s      # angles sum to 1/2

    for m, n in product(range(1, 5), repeat=2):
        checks = [(side_generic(m), side_generic(n), 0)]
        if n >= 2:
            checks.append((side_generic(m), side_integral(n), m - 1))
        if m >= 2:
            checks.append((side_integral(m), side_generic(n), n - 1))
        if m >= 2 and n >= 2:
            checks.append((side_integral(m), side_integral(n), m + n - 3))
        for eta, zeta, want in checks:
            got = hopf_nullity(eta, zeta)
            if got != want:
                return _fail(name, f"H({m},{n}) nullity case: got {got}, want {want}")
            cases += 1
        # generic characters: nullity 0 across a 7th-root diagonal sweep
        for (a, b), (eta, zeta) in grid(1, 7, 2):
            if hopf_nullity((eta,) * m, (zeta,) * n) != 0:
                return _fail(name, f"H({m},{n}) at ({a}/7,{b}/7): nonzero nullity "
                                   f"at a generic character")
            cases += 1

    # cross-check against the assembled family kernel (which also contains
    # one structural zero per copy beyond the first on each side)
    for m, n in product(range(1, 4), repeat=2):
        family = _family(m, n)
        for (a, b), (eta, zeta) in grid(1, 6, 2):
            closed = hopf_nullity((eta,) * m, (zeta,) * n)
            kernel = family.raw_inertia((eta, zeta))[2]
            if kernel != closed + (m + n - 1):
                return _fail(name, f"H({m},{n}) at ({a}/6,{b}/6): family kernel "
                                   f"{kernel} != closed form {closed} + {m + n - 1}")
            cases += 1
    return CriterionResult(name, True,
                           f"all four nullity cases and the generic-zero property "
                           f"hold in {cases} checks, kernel cross-check included")


# -- 9 ----------------------------------------------------------------------

def guard_discipline() -> CriterionResult:
    name = "guard-discipline"
    spliced = splice(_fixture("torus(2,4)"), _fixture("cable(4,2)+core"))
    raised, evaluated = 0, 0
    for (k0, k1, k2), om in grid(0, 8, 3):
        # both raised characters 1, and each operand keeps a color: k0 = 4, (k1, k2) != (0, 0)
        guarded = k0 == 4 and (k1 + k2) % 8 == 0 and (k1, k2) != (0, 0)
        try:
            spliced(om)
            evaluated += 1
            if guarded:
                return _fail(name, f"no GuardViolated at excluded {(k0, k1, k2)}/8")
        except GuardViolated:
            raised += 1
            if not guarded:
                return _fail(name, f"spurious GuardViolated at {(k0, k1, k2)}/8")
    if (evaluated, raised) != (505, 7):
        return _fail(name, f"unexpected guard partition {evaluated}+{raised}")

    h12 = merge_colors(hopf_sig_fn(1, 2), 0)
    self_splice = splice(h12, h12)
    for (a, b), om in grid(0, 4, 2):
        guarded = (a, b) == (2, 2)  # both raised to 1, and neither color deleted
        try:
            self_splice(om)
            if guarded:
                return _fail(name, f"no GuardViolated at ({a}/4,{b}/4)")
        except GuardViolated:
            if not guarded:
                return _fail(name, f"spurious GuardViolated at ({a}/4,{b}/4)")

    # a knot in either place has no guard: raised characters 1 evaluate
    knot = parse({"torus": [2, 3]})
    for guard_free, w in product((splice_knot(knot, h12), splice(h12, knot)), _angles(4)):
        guard_free((w,))  # w in {0, 1/2} raises w^2 to the unit
    return CriterionResult(name, True,
                           "GuardViolated raised exactly where both raised characters "
                           "are 1 and each operand keeps a color, in 528 splice "
                           "evaluations; knot splice total on the circle")


CRITERIA: List[Tuple[str, Callable[[], CriterionResult]]] = [
    ("referee-tables", referee_tables),
    ("referee-splice", referee_splice),
    ("hopf-oracle", hopf_oracle),
    ("hopf-spectrum", hopf_spectrum_check),
    ("defect-lemma", defect_lemma),
    ("hirzebruch", hirzebruch_sanity),
    ("univariate-reduction", univariate_reduction_check),
    ("hopf-nullity", hopf_nullity_check),
    ("guard-discipline", guard_discipline),
]


_CACHE_GROUPS = (("referee-tables", "referee-splice", "guard-discipline"),
                 ("hopf-oracle", "hopf-spectrum", "hopf-nullity"))


def suite_names() -> List[str]:
    return ["all"] + [name for name, _ in CRITERIA]


def _run(task: Tuple[int, ...]) -> List[CriterionResult]:
    """Run CRITERIA[i] for each i in task, in turn; a crashed criterion fails."""
    results = []
    for i in task:
        name, fn = CRITERIA[i]
        try:
            results.append(fn())
        except Exception as err:
            results.append(_raised(name, err))
    return results


def run_suite(suite: str) -> List[CriterionResult]:
    """Run one named suite ("all" runs every criterion), results in CRITERIA order.

    Several criteria run in P = min(usable CPUs, tasks) forked children; one
    criterion, one CPU, or a platform without fork runs in-process.  A task
    is the CRITERIA indices of one of _CACHE_GROUPS or of one other criterion,
    so entries that cannot be pickled still run.  Child k runs tasks[k::P];
    the parent collects and reaps every child.  A child that dies fails the
    criteria of the tasks it did not report; the rest stand.
    """
    wanted = [i for i, (name, _) in enumerate(CRITERIA) if suite in ("all", name)]
    if not wanted:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(suite_names())}")
    groups = [tuple(i for i in wanted if CRITERIA[i][0] in group) for group in _CACHE_GROUPS]
    tasks = sorted({next((g for g in groups if i in g), (i,)) for i in wanted})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = min(len(tasks), cpus) if hasattr(os, "fork") else 1
    if procs == 1:
        return _run(tuple(wanted))

    children = []
    for k in range(procs):
        src, out = os.pipe()
        if (pid := os.fork()) == 0:  # the child: report each task as it ends
            os.close(src)
            try:
                with open(out, "wb") as pipe:
                    for task in tasks[k::procs]:
                        pickle.dump((task, _run(task)), pipe)
                        pipe.flush()
                os._exit(0)
            finally:  # something escaped: exit all the same, never return
                os._exit(1)
        os.close(out)
        children.append((pid, src))
    done = {}
    for k, (pid, src) in enumerate(children):
        with open(src, "rb") as pipe, suppress(EOFError, pickle.UnpicklingError):
            while True:  # to the end, or to a record cut short by the child's death
                done.update(zip(*pickle.load(pipe)))
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        err = ChildProcessError(f"worker exited with status {status}")
        for i in (i for task in tasks[k::procs] for i in task if i not in done):
            done[i] = _raised(CRITERIA[i][0], err)
    return [done[i] for i in wanted]
