"""Answer checks for benchmark requests, independent of the timed code path.

Each check takes a request's exit code and standard output and returns the
number of checked units (sweep cells, evaluations, torus signatures, verify
criteria), or raises WrongAnswer.  Expected values come from routes the CLI
does not take for that request:

- fixture cells and evaluations: the frozen piecewise tables (`fixture_table`);
- the splice expression: the torus(3,6) table, with `guard` exactly where
  both raised characters are trivial;
- Hopf Seifert families: the closed form sigma_m(eta) * sigma_n(zeta);
- torus-link signatures: a row-wise lattice count written here, plus p<->q
  symmetry between the two requests of a pair.
"""

from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Sequence, Tuple

from splicesig.fixtures import fixture_table
from splicesig.hopf import sigma_k
from splicesig.torus import Angle

Check = Callable[[int, str], int]


class WrongAnswer(Exception):
    """The program exited badly or printed something other than the oracle's value."""


def _expect_ok(rc: int) -> None:
    if rc != 0:
        raise WrongAnswer(f"exit code {rc}")


def _angles(ks: Sequence[int], order: int) -> Tuple[Angle, ...]:
    return tuple(Angle(Fraction(k, order)) for k in ks)


# -- expected values --------------------------------------------------------

def fixture_value(name: str, omega: Sequence[Angle]) -> int:
    return fixture_table(name).value(tuple(omega))


def splice_cell(ks: Sequence[int], order: int) -> str:
    """The splice of torus(2,4) [2] with cable(4,2)+core [1,1] at ks/order.

    Away from the guard slice it equals the torus(3,6) link; on the slice
    (2*k0 = 0 and k1 + k2 = 0 mod order) the CLI must print `guard`.
    """
    k0, k1, k2 = ks
    if (2 * k0) % order == 0 and (k1 + k2) % order == 0:
        return "guard"
    return str(fixture_value("torus(3,6)", _angles(ks, order)))


def hopf_value(m: int, n: int, eta: Angle, zeta: Angle) -> int:
    return sigma_k(m, eta) * sigma_k(n, zeta)


def lattice_signature(p: int, q: int, theta: Fraction) -> int:
    """Torus-link signature b - a by counting lattice points one row at a time.

    For each i in 1..p-1 the j in 1..q-1 with theta < i/p + j/q < theta + 1
    form one integer interval; points on either wall count on neither side.
    """
    if theta > Fraction(1, 2):
        theta = 1 - theta
    a = ties = 0
    for i in range(1, p):
        lo = q * (theta - Fraction(i, p))      # j > lo
        hi = q * (theta + 1 - Fraction(i, p))  # j < hi
        first = max(1, lo.numerator // lo.denominator + 1)
        last = min(q - 1, -((-hi.numerator) // hi.denominator) - 1)
        a += max(0, last - first + 1)
        ties += sum(1 for w in (lo, hi) if w.denominator == 1 and 1 <= w <= q - 1)
    return (p - 1) * (q - 1) - ties - 2 * a


# -- checks on CLI output ---------------------------------------------------

def _single_int(stdout: str) -> int:
    lines = stdout.splitlines()
    if not lines:
        raise WrongAnswer("no output")
    try:
        return int(lines[0])
    except ValueError:
        raise WrongAnswer(f"not an integer: {lines[0]!r}") from None


def value_check(want: int) -> Check:
    """An `eval` or `torus-sig` request whose first output line must be `want`."""
    def check(rc: int, stdout: str) -> int:
        _expect_ok(rc)
        got = _single_int(stdout)
        if got != want:
            raise WrongAnswer(f"printed {got}, oracle says {want}")
        return 1
    return check


def sweep_check(order: int, arity: int, cell: Callable[[Tuple[int, ...]], str]) -> Check:
    """A `sweep` request: every grid cell k in 1..order-1, in product order."""
    want: Dict[str, str] = {
        ",".join(f"{k}/{order}" for k in ks): cell(ks)
        for ks in product(range(1, order), repeat=arity)}

    def check(rc: int, stdout: str) -> int:
        _expect_ok(rc)
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("#"):
            raise WrongAnswer("missing sweep header")
        rows = lines[1:]
        if len(rows) != len(want):
            raise WrongAnswer(f"{len(rows)} cells, expected {len(want)}")
        for (at, value), row in zip(want.items(), rows):
            if row != f"{at}\t{value}":
                raise WrongAnswer(f"cell {row!r}, oracle says {at}\t{value}")
        return len(rows)
    return check


def verify_check(criteria: int) -> Check:
    """`splice-sig verify`: exit 0, one PASS line per criterion, final summary."""
    def check(rc: int, stdout: str) -> int:
        _expect_ok(rc)
        lines = stdout.splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS "))
        if passed != criteria or not lines or \
                lines[-1] != f"all {criteria} criteria passed":
            raise WrongAnswer(f"{passed} of {criteria} criteria passed")
        return criteria
    return check
