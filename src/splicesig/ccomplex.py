"""Seifert-form families of C-complexes and the Hermitian forms they assemble.

A mu-colored link bounds a C-complex: one Seifert surface per color, pairwise
intersections in clasps only, no triple points.  Pushing cycles off the i-th
surface in direction eps_i (one choice per color) defines 2^mu integer Seifert
forms theta^eps on H_1 of the complex.  At a character omega with every
coordinate off 1 these assemble into the Hermitian form

    H(omega) = prod_i (1 - conj(omega_i)) * sum_eps (prod_{i: eps_i=-1} (-omega_i)) theta^eps

whose signature is the colored signature of the link.  For mu = 2 this
expands to the classical
(1-conj(eta))(1-conj(zeta)) (theta^{++} - zeta theta^{+-} - eta theta^{-+} + eta zeta theta^{--}).

When the chosen generators are an honest basis of H_1, the nullity of
H(omega) is the colored nullity (a twisted Betti number of the complement).
A redundant generating family still computes the signature, but its kernel
carries the excess rank on top of the nullity, so sig_fn's nullity is None
unless the basis flag is set; the raw kernel dimension stays available
(raw_inertia) for callers who correct for the excess themselves.

Characters with unit coordinates do not reach the form at all: deleting a
color changes the C-complex, so boundary values are delegated to explicitly
supplied sublink families (sig_fn), never recomputed from the full-link data.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property
from itertools import product
from typing import List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import HermitianMatrix, LaurentMatrix
from .errors import MAX_DEPTH, BoundaryCharacter, InvalidFamily
from .splice import SigFn, with_boundary
from .torus import Character, linking_problem

Sign = Tuple[int, ...]  # entries +1 / -1, length = arity

# a family's refusal lists the missing shift directions by name up to this arity
_LISTED_ARITY = 8


def _sign_key(eps: Sign) -> str:
    return "".join({1: "+", -1: "-"}.get(e, "?") for e in eps)


def _parse_sign_key(key: str) -> Sign:
    """One sign per color, each "+", "-" or "−"; anything else is refused."""
    if key.strip("+-−"):
        raise InvalidFamily(f"bad shift direction {key!r}: each sign is + or -")
    return tuple(1 if ch == "+" else -1 for ch in key)


def _parse_boundary_key(key: str) -> Tuple[int, ...]:
    """The kept colors of a boundary key, comma-separated integers ("" keeps none)."""
    try:
        return tuple(int(x) for x in key.split(",")) if key else ()
    except ValueError:
        raise InvalidFamily(
            f"bad boundary key {key!r}: kept colors are comma-separated integers") from None


def _bad_key(kept: Tuple[int, ...], mu: int) -> Optional[str]:
    """Unless kept is some of the mu colours, ascending, the problem: a key keeping
    every colour is never read and lets boundaries nest forever."""
    if not (all(0 <= i < mu for i in kept) and list(kept) == sorted(set(kept)) and len(kept) < mu):
        return f"bad boundary key {','.join(map(str, kept))!r}"


def _json_typed(value, kind: type, what: str):
    """value if its type is exactly kind: a boolean is no integer, 1 no boolean."""
    if type(value) is not kind:
        name = {bool: "boolean", int: "integer", str: "string"}[kind]
        raise InvalidFamily(f"{what} must be a JSON {name}, not {value!r}")
    return value


def _int_rows(rows, what: str) -> list:
    """A JSON matrix of integers, each entry checked by _json_typed."""
    return [[_json_typed(x, int, f"{what} entry") for x in row] for row in rows]


def _smith(matrix: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, product of the nonzero invariant factors) of an integer matrix, by
    unimodular row and column steps to a diagonal, whose pivots multiply to it."""
    rows, rank, factors = [list(row) for row in matrix], 0, 1
    while nonzero := [(abs(x), i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]:
        _, i, j = min(nonzero)  # pivot on a smallest entry; a remainder is smaller still
        pivot, prow = rows[i][j], rows[i]
        for row in rows:
            if row is not prow:
                q = row[j] // pivot
                row[:] = [x - q * y for x, y in zip(row, prow)]
        for c in range(len(prow)):
            if c != j and (q := prow[c] // pivot):
                for row in rows:
                    row[c] -= q * row[j]
        if not any(row[j] for row in rows if row is not prow) and not any(prow[:j] + prow[j + 1:]):
            rows = [row[:j] + row[j + 1:] for row in rows if row is not prow]
            rank, factors = rank + 1, factors * abs(pivot)
    return rank, factors


class SeifertFamily:
    """The 2^mu Seifert forms of a C-complex, with optional geometric metadata.

    forms maps each sign vector to a g x g integer matrix; duality demands
    theta^{-eps} = transpose(theta^{eps}), and one color with a basis a surface's
    theta^+ - theta^-, each nonzero invariant factor 1 (_surface).  linking, if
    present, is the matrix of total linking numbers between color classes
    (torus.linking_problem), no component count: a family states none.  boundary,
    if present, maps tuples of kept color indices to the sublink's family.  The
    constructor applies these rules and raises InvalidFamily with one argument per
    problem, so every family that exists is valid; a non-integer raises TypeError.
    """

    def __init__(self, arity: int, forms: Mapping[Sign, Sequence[Sequence[int]]], *,
                 basis: bool = False,
                 boundary: Optional[Mapping[Tuple[int, ...], "SeifertFamily"]] = None,
                 linking: Optional[Sequence[Sequence[int]]] = None,
                 label: Optional[str] = None):
        self.arity = arity
        self.forms = {tuple(eps): tuple(tuple(operator.index(x) for x in row) for row in mat)
                      for eps, mat in forms.items()}
        self.generators = len(next(iter(self.forms.values()), ()))
        self.basis = bool(basis)
        self.boundary = {tuple(k): v for k, v in (boundary or {}).items()}
        self.linking = (tuple(tuple(operator.index(x) for x in row) for row in linking)
                        if linking is not None else None)
        self.label = label
        if problems := self._problems():
            raise InvalidFamily(*problems)

    def _problems(self) -> List[str]:
        """The rules a family breaks, as human-readable strings.  A boundary
        family is valid, as it exists: only its key and arity are checked."""
        out: List[str] = []
        mu, g = self.arity, self.generators
        if mu < 1:
            return ["arity must be at least 1"]
        # the 2^mu directions are counted, not built: a short document can
        # declare an arity whose directions would not fit in memory
        have = {eps for eps in self.forms if len(eps) == mu and set(eps) <= {1, -1}}
        if len(have) >> mu == 0:  # fewer than 2^mu
            if mu <= _LISTED_ARITY:
                missing = sorted(_sign_key(e) for e in product((1, -1), repeat=mu)
                                 if e not in have)
                out.append(f"missing shift directions {missing}")
            else:
                out.append(f"missing shift directions: {len(have)} of the 2^{mu} are given")
        extra = sorted(_sign_key(e) for e in set(self.forms) - have)
        if extra:
            out.append(f"unexpected shift directions {extra}")
        if out:
            return out
        for eps, mat in self.forms.items():
            if len(mat) != g or any(len(row) != g for row in mat):
                out.append(f"form {_sign_key(eps)} is not {g}x{g}")
        if out:
            return out
        for eps in self.forms:
            if eps[0] < 0:
                continue  # each pair {eps, -eps} once, from its eps_0 = +1 side
            neg = tuple(-e for e in eps)
            a, b = self.forms[eps], self.forms[neg]
            if any(a[i][j] != b[j][i] for i in range(g) for j in range(g)):
                out.append(
                    f"duality broken: {_sign_key(neg)} is not the transpose of "
                    f"{_sign_key(eps)}, so H(t) is not the conjugate transpose of itself")
        if self.linking is not None and (problem := linking_problem(self.linking, mu)):
            out.append(problem)
        for kept, sub in self.boundary.items():
            if bad := _bad_key(kept, mu):
                out.append(bad)
            elif sub.arity != len(kept):
                out.append(f"boundary family for {kept} has arity {sub.arity}")
        if mu == 1 and self.basis and self._surface[1] != 1:
            out.append("theta+ - theta- is no surface's intersection form: its nonzero "
                       f"invariant factors multiply to {self._surface[1]}, not 1")
        return out

    @cached_property
    def _surface(self) -> Tuple[int, int]:
        """_smith of theta^+ - theta^-, one color's intersection form: a surface's is
        unimodular modulo its radical, of rank components - 1."""
        return _smith([[a - b for a, b in zip(p, m)]
                       for p, m in zip(self.forms[(1,)], self.forms[(-1,)])])

    # -- assembly -------------------------------------------------------------

    def _check_character(self, omega: Character) -> None:
        if len(omega) != self.arity:
            raise ValueError(f"character has {len(omega)} colors, matrix expects {self.arity}")
        units = [i for i, a in enumerate(omega) if a.is_unit()]
        if units:
            raise BoundaryCharacter(
                f"coordinates {units} equal 1; the assembled form is only "
                "defined on the open torus")

    @cached_property
    def laurent(self) -> LaurentMatrix:
        """H(t), compiled by LaurentMatrix.from_forms on first use: the constructor's
        rules make every form g x g and H(t) equal H(t)*.  H(omega) is its value at omega."""
        return LaurentMatrix.from_forms(self.arity, self.forms)

    def assemble(self, omega: Character) -> HermitianMatrix:
        """The Hermitian form H(omega) over Q(zeta_N), N the lcm of omega's denominators."""
        self._check_character(omega)
        return self.laurent.evaluate(omega)

    def _inertia_at(self, omega: Character) -> Tuple[int, int, int]:
        """(positive, negative, zero) of H(omega), one elimination per Galois orbit."""
        self._check_character(omega)
        return self.laurent.inertia(omega)

    # -- invariants -------------------------------------------------------------

    def signature(self, omega: Character) -> int:
        pos, neg, _ = self._inertia_at(omega)
        return pos - neg

    def raw_inertia(self, omega: Character) -> Tuple[int, int, int]:
        """(positive, negative, kernel) of the form itself, basis or not."""
        return self._inertia_at(omega)

    # -- evaluator wiring ---------------------------------------------------------

    def sig_fn(self) -> SigFn:
        """Wrap into a SigFn, delegating unit coordinates to sublink families.

        lk is the family's linking matrix.  Counts are unknown, save that one color
        with a basis derives its own, the corank of theta^+ - theta^- plus 1
        (_surface).  The nullity is the kernel with a basis.
        """
        subs = {kept: fam.sig_fn() for kept, fam in self.boundary.items()}
        counts = ([self.generators - self._surface[0] + 1]
                  if self.arity == 1 and self.basis else None)
        nullity = (lambda omega: self._inertia_at(omega)[2]) if self.basis else None
        return with_boundary(self.arity, self.signature, subs, lk=self.linking, counts=counts,
                             label=self.label, nullity=nullity)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        doc: dict = {
            "arity": self.arity,
            "generators": self.generators,
            "forms": {_sign_key(eps): [list(row) for row in mat]
                      for eps, mat in sorted(self.forms.items(), key=lambda kv: _sign_key(kv[0]))},
            "basis": self.basis,
        }
        if self.boundary:
            doc["boundary"] = {",".join(str(i) for i in kept): fam.to_json()
                               for kept, fam in sorted(self.boundary.items())}
        if self.linking is not None:
            doc["linking"] = [list(row) for row in self.linking]
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "SeifertFamily":
        """The family of a JSON document.  A malformed document or boundary key, or
        boundary families nested more than MAX_DEPTH deep, are refused as read, the
        rest with the problems of every family that breaks a rule: a boundary
        family's under its key ("boundary (k,): ..."), its arity then unchecked."""

        def read(doc: dict, depth: int) -> Tuple[Optional[SeifertFamily], List[str]]:
            """The family of doc, or None and its problems."""
            problems: List[str] = []
            try:
                forms = {_parse_sign_key(k): _int_rows(v, f"form {k}")
                         for k, v in doc["forms"].items()}
                if len(forms) < len(doc["forms"]):
                    raise InvalidFamily("two forms have one shift direction (- and − are one)")
                mu, boundary = _json_typed(doc["arity"], int, "arity"), {}
                if "boundary" in doc and depth == MAX_DEPTH:  # checked while descending
                    raise InvalidFamily(f"boundary families nest more than {MAX_DEPTH} deep")
                for key, sub in doc.get("boundary", {}).items():
                    kept = _parse_boundary_key(key)
                    if bad := _bad_key(kept, mu):
                        raise InvalidFamily(bad)
                    boundary[kept], broken = read(sub, depth + 1)
                    problems += [f"boundary {kept}: {problem}" for problem in broken]
                basis = _json_typed(doc.get("basis", False), bool, "basis")
                linking = doc.get("linking")
                linking = None if linking is None else _int_rows(linking, "linking")
            except (KeyError, TypeError, AttributeError) as err:
                raise InvalidFamily(f"family document missing or malformed: {err!r}") from err
            label = _json_typed(doc["label"], str, "label") if "label" in doc else None
            g = len(next(iter(forms.values()), ()))
            declared = _json_typed(doc.get("generators", g), int, "generators")
            if declared != g:
                raise InvalidFamily(f"declared {declared} generators but forms are {g}x{g}")
            try:
                fam = cls(mu, forms, basis=basis, linking=linking, label=label,
                          boundary={kept: sub for kept, sub in boundary.items() if sub})
            except InvalidFamily as err:
                return None, [*err.args, *problems]
            return (None if problems else fam), problems

        fam, problems = read(doc, 0)
        if problems:
            raise InvalidFamily(*problems)
        return fam

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "SeifertFamily":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        name = self.label or "family"
        return (f"SeifertFamily({name}, arity={self.arity}, "
                f"generators={self.generators}, basis={self.basis})")
