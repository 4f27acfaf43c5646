"""Exception types shared across the package, and the limits they enforce."""

# How deep expression combinators and Seifert boundary families may nest.  An
# evaluator costs two Python frames per combinator it nests, so documents up to
# this depth evaluate well inside the default recursion limit of 1000.
MAX_DEPTH = 256
# The most characters one command evaluates: sweep and defect-table refuse a
# larger grid before any cell.  It also sizes the orbit and fixture-leaf caches,
# so no command evicts what it will ask for again.
MAX_GRID_CELLS = 100_000


class SpliceSigError(Exception):
    """Base class for all library-specific errors."""


class GuardViolated(SpliceSigError):
    """A gluing formula was evaluated at a character excluded by its validity guard.

    The splice formula needs (upsilon', upsilon'') != (1, 1) where each
    operand keeps a color besides its distinguished one (a coordinate that
    is not 1); the single-variable splice needs xi^gcd(lambda', lambda'')
    != 1 for xi != 1.  At such characters the additive formula genuinely
    fails (it can be off by a bounded correction), so evaluation refuses to
    return a number.
    """


class BoundaryCharacter(SpliceSigError):
    """A signature was requested at a character outside the evaluator's domain.

    Typically: a coordinate equals 1 and no sublink data for the corresponding
    color deletion was supplied.
    """


class NotHermitian(SpliceSigError):
    """A matrix failed the exact Hermitian check when it was built: a
    LaurentMatrix that is not H(t) = H(t)* as polynomials, or a HermitianMatrix
    of CyclotomicNumbers.
    """


class LevelMismatch(SpliceSigError):
    """A level N that cannot serve: a cyclotomic number lifted to a level that
    is not a multiple of its own, or a level past the bound on its power table
    (N*phi(N) entries).
    """


class InvalidFamily(SpliceSigError):
    """A Seifert family or its JSON document is malformed or breaks a rule.  A
    family is refused when it is built, one argument per problem, "; "-joined
    in the message."""

    def __str__(self):
        return "; ".join(map(str, self.args))


class InvalidParams(SpliceSigError):
    """Lattice-count or reduction parameters violate their invariants (e.g. p = 0)."""


class UsageError(SpliceSigError):
    """The command line was unusable: a bad angle, --order or --lambda, an
    unreadable expression file, or a grid above the cell limit.  The CLI
    exits with 2 for it, as for every error without a code of its own.
    """


class ExpressionError(SpliceSigError):
    """A splice-expression document could not be parsed or wired together."""
