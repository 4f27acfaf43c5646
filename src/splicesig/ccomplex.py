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
carries the excess rank on top of the nullity, so nullity queries are refused
unless the basis flag is set; the raw kernel dimension stays available for
callers who correct for the excess themselves.

Characters with unit coordinates do not reach the form at all: deleting a
color changes the C-complex, so boundary values are delegated to explicitly
supplied sublink families (sig_fn), never recomputed from the full-link data.
"""

from __future__ import annotations

import json
import math
from typing import List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import HermitianMatrix, _common_level, _level, _steps
from .errors import BoundaryCharacter, InvalidFamily, NullityUnavailable
from .splice import SigFn, with_boundary
from .torus import Character

Sign = Tuple[int, ...]  # entries +1 / -1, length = arity


def _all_signs(mu: int) -> List[Sign]:
    out = [()]
    for _ in range(mu):
        out = [s + (e,) for s in out for e in (1, -1)]
    return out


def _sign_key(eps: Sign) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def _parse_sign_key(key: str) -> Sign:
    return tuple(1 if ch == "+" else -1 for ch in key.replace("−", "-"))


class SeifertFamily:
    """The 2^mu Seifert forms of a C-complex, with optional geometric metadata.

    forms maps each sign vector to a g x g integer matrix; duality demands
    theta^{-eps} = transpose(theta^{eps}).  linking, if present, is the
    symmetric matrix of total linking numbers between color classes (zero
    diagonal), needed by color-merging operations.  boundary, if present,
    maps tuples of kept color indices to the sublink's own family.
    """

    def __init__(self, arity: int, forms: Mapping[Sign, Sequence[Sequence[int]]], *,
                 basis: bool = False,
                 boundary: Optional[Mapping[Tuple[int, ...], "SeifertFamily"]] = None,
                 linking: Optional[Sequence[Sequence[int]]] = None,
                 label: Optional[str] = None):
        self.arity = arity
        self.forms = {tuple(eps): tuple(tuple(int(x) for x in row) for row in mat)
                      for eps, mat in forms.items()}
        some = next(iter(self.forms.values()), ())
        self.generators = len(some)
        self.basis = bool(basis)
        self.boundary = {tuple(k): v for k, v in (boundary or {}).items()}
        self.linking = (tuple(tuple(int(x) for x in row) for row in linking)
                        if linking is not None else None)
        self.label = label
        # construction is permissive so that validate() can report problems;
        # every invariant goes through assemble(), whose exact Hermitian check
        # refuses bad data, so it cannot leak numbers

    # -- validation -----------------------------------------------------------

    def validate(self) -> List[str]:
        """Invariant violations as human-readable strings; empty means ok."""
        out: List[str] = []
        mu, g = self.arity, self.generators
        if mu < 1:
            out.append("arity must be at least 1")
            return out
        expected = set(_all_signs(mu))
        have = set(self.forms)
        if have != expected:
            missing = sorted(_sign_key(e) for e in expected - have)
            extra = sorted(_sign_key(e) for e in have - expected)
            if missing:
                out.append(f"missing shift directions {missing}")
            if extra:
                out.append(f"unexpected shift directions {extra}")
            return out
        for eps, mat in self.forms.items():
            if len(mat) != g or any(len(row) != g for row in mat):
                out.append(f"form {_sign_key(eps)} is not {g}x{g}")
        if out:
            return out
        for eps in self.forms:
            neg = tuple(-e for e in eps)
            a, b = self.forms[eps], self.forms[neg]
            if any(a[i][j] != b[j][i] for i in range(g) for j in range(g)):
                out.append(
                    f"duality broken: {_sign_key(neg)} is not the transpose of {_sign_key(eps)}")
        if self.linking is not None:
            if len(self.linking) != mu or any(len(row) != mu for row in self.linking):
                out.append(f"linking matrix is not {mu}x{mu}")
            elif any(self.linking[i][j] != self.linking[j][i]
                     for i in range(mu) for j in range(mu)):
                out.append("linking matrix is not symmetric")
        for kept, sub in self.boundary.items():
            if not all(0 <= i < mu for i in kept) or list(kept) != sorted(set(kept)):
                out.append(f"bad boundary key {kept}")
                continue
            if sub.arity != len(kept):
                out.append(f"boundary family for {kept} has arity {sub.arity}")
            for problem in sub.validate():
                out.append(f"boundary {kept}: {problem}")
        return out

    # -- assembly -------------------------------------------------------------

    def _check_character(self, omega: Character) -> None:
        if len(omega) != self.arity:
            raise ValueError(
                f"character has {len(omega)} colors, family has {self.arity}")
        units = [i for i, a in enumerate(omega) if a.is_unit()]
        if units:
            raise BoundaryCharacter(
                f"coordinates {units} equal 1; the assembled form is only "
                "defined on the open torus")

    def assemble(self, omega: Character) -> HermitianMatrix:
        """The Hermitian form H(omega) over Q(zeta_N), exactly checked."""
        self._check_character(omega)
        level = _common_level(omega)
        steps = _steps(omega, level)
        # prod_i (1 - t_i^-1) as (exponent of zeta_N, coefficient) terms
        pref = [(0, 1)]
        for s in steps:
            pref += [(e - s, -c) for e, c in pref]
        # times prod_{i: eps_i = -1} (-t_i), per shift direction
        coefs = {}
        for eps in _all_signs(self.arity):
            shift = sum(s for s, e in zip(steps, eps) if e < 0)
            coefs[eps] = [(e + shift, math.prod(eps) * c) for e, c in pref]
        lv = _level(level)
        g = self.generators
        mat = []
        for i in range(g):
            row = []
            for j in range(g):
                terms = []
                for eps, pre in coefs.items():
                    k = self.forms[eps][i][j]
                    if k:
                        terms += [(e, k * c) for e, c in pre]
                row.append(lv.reduce(1, terms))
            mat.append(row)
        return HermitianMatrix(mat, level=level)

    def _inertia_at(self, omega: Character) -> Tuple[int, int, int]:
        """(positive, negative, zero) of H(omega), through the checked assembly."""
        return self.assemble(omega).inertia()

    # -- invariants -------------------------------------------------------------

    def signature(self, omega: Character) -> int:
        pos, neg, _ = self._inertia_at(omega)
        return pos - neg

    def nullity(self, omega: Character) -> int:
        if not self.basis:
            raise NullityUnavailable(
                "generators are not marked as a basis of H_1; the kernel of the "
                "form overshoots the nullity (see raw_inertia)")
        return self._inertia_at(omega)[2]

    def signature_nullity(self, omega: Character) -> Tuple[int, int]:
        pos, neg, nul = self._inertia_at(omega)
        if not self.basis:
            raise NullityUnavailable(
                "generators are not marked as a basis of H_1; the kernel of the "
                "form overshoots the nullity (see raw_inertia)")
        return pos - neg, nul

    def raw_inertia(self, omega: Character) -> Tuple[int, int, int]:
        """(positive, negative, kernel) of the form itself, basis or not."""
        return self._inertia_at(omega)

    # -- evaluator wiring ---------------------------------------------------------

    def sig_fn(self, boundary_table: Optional[Mapping[Tuple[int, ...], "SeifertFamily"]] = None,
               *, distinguished: bool = False) -> SigFn:
        """Wrap into a SigFn, delegating unit coordinates to sublink families.

        boundary_table overrides the family's own boundary data when given.
        With distinguished=True, color 0 is marked distinguished and its
        linking vector is read off the linking matrix (which must be present).
        """
        table = dict(boundary_table) if boundary_table is not None else self.boundary
        subs = {kept: fam.sig_fn() for kept, fam in table.items()}
        linking = None
        if distinguished:
            if self.linking is None:
                raise InvalidFamily(
                    "distinguished evaluators need the linking matrix metadata")
            linking = tuple(self.linking[0][j] for j in range(1, self.arity))
        return with_boundary(self.arity, self.signature, subs,
                             linking=linking, label=self.label)

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
        try:
            forms = {_parse_sign_key(k): v for k, v in doc["forms"].items()}
            arity = int(doc["arity"])
        except (KeyError, TypeError, AttributeError) as err:
            raise InvalidFamily(f"family document missing or malformed: {err!r}") from err
        boundary = None
        if "boundary" in doc:
            boundary = {}
            for key, sub in doc["boundary"].items():
                kept = tuple(int(x) for x in key.split(",")) if key else ()
                boundary[kept] = cls.from_json(sub)
        fam = cls(arity, forms,
                  basis=bool(doc.get("basis", False)),
                  boundary=boundary,
                  linking=doc.get("linking"),
                  label=doc.get("label"))
        declared = int(doc.get("generators", fam.generators))
        if declared != fam.generators:
            raise InvalidFamily(
                f"declared {declared} generators but forms are {fam.generators}x{fam.generators}")
        return fam

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "SeifertFamily":
        return cls.from_json(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "SeifertFamily":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        name = self.label or "family"
        return (f"SeifertFamily({name}, arity={self.arity}, "
                f"generators={self.generators}, basis={self.basis})")


# module-level aliases mirroring the operation names

def validate(family: SeifertFamily) -> List[str]:
    return family.validate()


def assemble(family: SeifertFamily, omega: Character) -> HermitianMatrix:
    return family.assemble(omega)


def signature(family: SeifertFamily, omega: Character) -> int:
    return family.signature(omega)


def nullity(family: SeifertFamily, omega: Character) -> int:
    return family.nullity(omega)


def sig_fn(family: SeifertFamily,
           boundary_table: Optional[Mapping[Tuple[int, ...], SeifertFamily]] = None,
           **kw) -> SigFn:
    return family.sig_fn(boundary_table, **kw)
