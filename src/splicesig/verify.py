"""Self-verification suites: exact, deterministic, each a few seconds at most.

Every suite recomputes its expected values from an independent route
(piecewise tables, Seifert-matrix oracles, closed forms) and compares
exactly; nothing is tuned to the implementation under test.  The CLI's
`verify` command runs these and exits non-zero on any failure.  The suites
share no result, so `run_suite` may run them in separate worker processes,
each of which fills caches such as the fixture evaluators below for itself;
the two referee suites read the same fixture evaluators, so they share a worker.
"""

import os
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from typing import Callable, List, NamedTuple, Tuple

from .cables import UnivariateReductionInput, hirzebruch, univariate_reduction
from .ccomplex import SeifertFamily
from .errors import GuardViolated
from .fixtures import fixture_sig, fixture_table
from .hopf import (certify_spectrum, hopf_nullity, hopf_seifert_family,
                   hopf_sig_fn, sigma_k)
from .splice import SigFn, merge_colors, splice, splice_knot
from .torus import Angle, defect, defect1


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _angles(order: int) -> Tuple[Angle, ...]:
    """The grid angles k/order, k < order, built once per order for every suite."""
    return tuple(Angle.from_ratio(k, order) for k in range(order))


@lru_cache(maxsize=None)
def _fixture_values(name: str, order: int) -> Callable[[Tuple[int, ...]], int]:
    """The signature of a fixture at grid cells ks/order, one evaluator per fixture
    in each process that runs criteria."""
    sig = fixture_sig(name)
    angles = _angles(order)  # shared by every character the leaf caches keep
    return lambda ks: sig(tuple(angles[k] for k in ks))


def _fail(name: str, detail: str) -> CriterionResult:
    return CriterionResult(name, False, detail)


def _raised(name: str, err: BaseException) -> CriterionResult:
    return _fail(name, f"raised {type(err).__name__}: {err}")


# -- 1 ----------------------------------------------------------------------

def referee_tables() -> CriterionResult:
    name = "referee-tables"
    checked = 0
    angles = _angles(8)
    for fix, arity in (("torus(2,4)", 2), ("cable(4,2)+core", 3), ("torus(3,6)", 3)):
        table, value = fixture_table(fix), _fixture_values(fix, 8)
        for ks in product(range(1, 8), repeat=arity):
            want = table.value(tuple(angles[k] for k in ks))
            got = value(ks)
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
    t36, t24, c42 = (_fixture_values(fix, 8)
                     for fix in ("torus(3,6)", "torus(2,4)", "cable(4,2)+core"))
    for k0, k1, k2 in product(range(8), repeat=3):
        om1 = (angles[k0],)
        om2 = (angles[k1], angles[k2])
        lhs = t36((k0, k1, k2))
        rhs = (t24(((k1 + k2) % 8, k0)) + c42(((2 * k0) % 8, k1, k2))
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
    angles = _angles(12)
    for m, n in product(range(1, 5), repeat=2):
        family = hopf_seifert_family(m, n)
        for a, b in product(range(1, 12), repeat=2):
            eta, zeta = angles[a], angles[b]
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
    cells = list(product(range(1, 12), repeat=2))
    characters = [(_angles(12)[a], _angles(12)[b]) for a, b in cells]
    for m, n in product(range(1, 4), repeat=2):
        bad = certify_spectrum(hopf_seifert_family(m, n), m, n, characters)
        if bad is not None:
            a, b = cells[bad]
            return _fail(name, f"H({m},{n}) at ({a}/12,{b}/12): exact eigenvalues "
                               f"not proved equal to the product formula")
    return CriterionResult(name, True, f"exact eigenvalues equal the product formula "
                                       f"in {9 * len(cells)} cases")


# -- 5 ----------------------------------------------------------------------

def defect_lemma() -> CriterionResult:
    name = "defect-lemma"
    order = 24
    angles = _angles(order)
    grid1 = {(k,): defect1((angles[k],)) for k in range(order)}
    grid2 = {ks: defect1(tuple(angles[k] for k in ks))
             for ks in product(range(order), repeat=2)}
    grid3 = {ks: defect1(tuple(angles[k] for k in ks))
             for ks in product(range(order), repeat=3)}
    grids = {1: grid1, 2: grid2, 3: grid3}

    # vanishing: at the unit character, and identically for mu <= 1
    if defect1(()) != 0:
        return _fail(name, "defect of the empty character is not 0")
    for mu in (1, 2, 3):
        if grids[mu][(0,) * mu] != 0:
            return _fail(name, f"defect at the unit character, mu={mu}")
    if any(v != 0 for v in grid1.values()):
        return _fail(name, "defect not identically zero for mu=1")

    # conjugation antisymmetry
    for mu in (2, 3):
        for ks, v in grids[mu].items():
            if grids[mu][tuple((-k) % order for k in ks)] != -v:
                return _fail(name, f"conjugation antisymmetry fails at {ks}, mu={mu}")

    # symmetric group invariance
    for mu in (2, 3):
        for ks, v in grids[mu].items():
            for perm in permutations(ks):
                if grids[mu][perm] != v:
                    return _fail(name, f"permutation invariance fails at {ks}, mu={mu}")

    # stability under appending a unit coordinate
    for mu in (1, 2):
        for ks, v in grids[mu].items():
            if grids[mu + 1][ks + (0,)] != v:
                return _fail(name, f"unit embedding fails at {ks}, mu={mu}")
    if grid1[(0,)] != defect1(()):
        return _fail(name, "unit embedding fails at mu=0")

    # stability under appending a conjugate pair
    for e in range(order):
        pair = (e, (-e) % order)
        if grid2[pair] != defect1(()):
            return _fail(name, f"conjugate-pair embedding fails at mu=0, eta={e}/24")
        for (k,), v in grid1.items():
            if grid3[(k,) + pair] != v:
                return _fail(name, f"conjugate-pair embedding fails at ({k},{e})/24")
    total = len(grid1) + len(grid2) + len(grid3)
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
        for n1, n2 in product(range(1, n), repeat=2):
            closed = (1 - n1) * (1 - n2) - n1 * n2
            oracle = sigma_k(n1, xi) * sigma_k(n2, xi) - n1 * n2
            if closed != oracle:
                return _fail(name, f"sigma of the monochrome H({n1},{n2}) at 1/{n}: "
                                   f"{oracle} != {closed}")
            inp = UnivariateReductionInput.make(n, (n1, n2), (0, 0),
                                               [[0, 1], [1, 0]])
            got = univariate_reduction(inp, closed)
            want = hopf(inp.omega())
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

    sevenths = _angles(7)
    for m, n in product(range(1, 5), repeat=2):
        checks = [(side_generic(m), side_generic(n), 0)]
        if n >= 2:
            checks.append((side_generic(m), side_integral(n), m - 1))
        if m >= 2:
            checks.append((side_integral(m), side_generic(n), n - 1))
        if m >= 2 and n >= 2:
            checks.append((side_integral(m), side_integral(n), m + n - 3))
        for eta, zeta, want in checks:
            got = hopf_nullity(m, n, eta, zeta)
            if got != want:
                return _fail(name, f"H({m},{n}) nullity case: got {got}, want {want}")
            cases += 1
        # generic characters: nullity 0 across a 7th-root diagonal sweep
        for a, b in product(range(1, 7), repeat=2):
            if hopf_nullity(m, n, (sevenths[a],) * m, (sevenths[b],) * n) != 0:
                return _fail(name, f"H({m},{n}) at ({a}/7,{b}/7): nonzero nullity "
                                   f"at a generic character")
            cases += 1

    # cross-check against the assembled family kernel (which also contains
    # one structural zero per copy beyond the first on each side)
    sixths = _angles(6)
    for m, n in product(range(1, 4), repeat=2):
        family = hopf_seifert_family(m, n)
        for a, b in product(range(1, 6), repeat=2):
            eta, zeta = (sixths[a],) * m, (sixths[b],) * n
            closed = hopf_nullity(m, n, eta, zeta)
            kernel = family.raw_inertia((sixths[a], sixths[b]))[2]
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
    spliced = splice(fixture_sig("torus(2,4)"), fixture_sig("cable(4,2)+core"))
    raised, evaluated = 0, 0
    eighths = _angles(8)
    for k0, k1, k2 in product(range(8), repeat=3):
        om = (eighths[k0], eighths[k1], eighths[k2])
        guarded = (2 * k0) % 8 == 0 and (k1 + k2) % 8 == 0
        try:
            spliced(om)
            evaluated += 1
            if guarded:
                return _fail(name, f"no GuardViolated at excluded {(k0, k1, k2)}/8")
        except GuardViolated:
            raised += 1
            if not guarded:
                return _fail(name, f"spurious GuardViolated at {(k0, k1, k2)}/8")
    if (evaluated, raised) != (496, 16):
        return _fail(name, f"unexpected guard partition {evaluated}+{raised}")

    h12 = merge_colors(hopf_sig_fn(1, 2), 0)
    self_splice = splice(h12, h12)
    quarters = _angles(4)
    for a, b in product(range(4), repeat=2):
        om = (quarters[a], quarters[b])
        both_unit = (2 * a) % 4 == 0 and (2 * b) % 4 == 0
        try:
            self_splice(om)
            if both_unit:
                return _fail(name, f"no GuardViolated at ({a}/4,{b}/4)")
        except GuardViolated:
            if not both_unit:
                return _fail(name, f"spurious GuardViolated at ({a}/4,{b}/4)")

    # the knot-splice form carries no guard: evaluations with the raised
    # character equal to 1 succeed
    def trefoil_value(om):
        return 0 if om[0].is_unit() else hirzebruch(2, 3, om[0])

    knot = SigFn(1, trefoil_value, label="torus(2,3)")
    guard_free = splice_knot(knot, h12)
    for w in quarters:
        guard_free((w,))  # w in {0, 1/2} raises w^2 to the unit
    return CriterionResult(name, True,
                           "GuardViolated raised exactly on the excluded slice in 528 "
                           "splice evaluations; knot splice total on the circle")


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


# criteria that read the same fixture evaluators (_fixture_values)
_SHARED_CACHES = ("referee-tables", "referee-splice")


def suite_names() -> List[str]:
    return ["all"] + [name for name, _ in CRITERIA]


def _run(task: Tuple[int, ...]) -> List[CriterionResult]:
    """Run CRITERIA[i] for each i in task, in turn; a crashed criterion is a
    failed criterion."""
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

    Several criteria run in a pool of forked workers, up to one per usable
    CPU; one criterion, one CPU, or a platform without fork runs in-process.
    A task is a tuple of indices into CRITERIA, never the functions, so
    entries that cannot be pickled still run.  The criteria of
    _SHARED_CACHES form one task, so the second reuses the first's caches.
    A worker that dies fails every criterion it leaves unfinished instead of
    hanging the run.
    """
    wanted = [i for i, (name, _) in enumerate(CRITERIA) if suite in ("all", name)]
    if not wanted:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(suite_names())}")
    shared = tuple(i for i in wanted if CRITERIA[i][0] in _SHARED_CACHES)
    tasks = sorted({shared if i in shared else (i,) for i in wanted})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        return _run(tuple(wanted))

    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    done = {}
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for task, future in [(task, pool.submit(_run, task)) for task in tasks]:
            try:
                done.update(zip(task, future.result()))
            except BrokenExecutor as err:  # a worker died
                done.update((i, _raised(CRITERIA[i][0], err)) for i in task)
    return [done[i] for i in wanted]
