"""Golden CLI transcripts: every byte a fixed set of commands writes.

tests/golden_cli.json holds the family and expression files the commands
read, under relative names, and for each command the stdout, stderr, exit
code and CSV file that `cli.main` produced when it was recorded.  The test
replays each command in-process from a temporary directory holding those
files and compares byte for byte.  A change that means to alter output
re-records the file with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import io
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from splicesig.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _cases():
    """(id, argv, csv file name or None), in recording order."""
    def inline(doc):
        return json.dumps(doc)

    splice_doc = {"splice": [{"fixture": "torus-2-4"}, [2],
                             {"fixture": "cable-4-2"}, [1, 1]]}
    guard_doc = {"splice": [{"merge": [{"hopf": [1, 2]}, 0]}, [2],
                            {"merge": [{"hopf": [1, 2]}, 0]}, [2]]}
    cable_doc = {"cable": [{"hopf": [1, 2]}, 2]}
    collapse = {"merge": [{"hopf": [1, 1]}, 1]}
    out = [
        # README examples
        ("readme-eval-hopf", ["eval", "hopf", "2", "2", "--at", "1/3,1/3,1/3,1/3"], None),
        ("readme-eval-fixture", ["eval", "fixture", "referee-L", "--at", "1/8,1/8,1/8"], None),
        ("readme-eval-splice", ["eval", inline(splice_doc), "--at", "1/8,1/8,1/8"], None),
        ("readme-sweep", ["sweep", "referee-K'L'", "--order", "8"], None),
        ("readme-sweep-csv", ["sweep", "fixture", "cable-4-2", "--order", "8",
                              "--csv", "out.csv"], "out.csv"),
        ("readme-defect-table", ["defect-table", "--lambda", "1,2", "--order", "12"], None),
        ("readme-torus-sig", ["torus-sig", "2", "3", "1/2"], None),
        ("readme-verify-one", ["verify", "referee-splice"], None),
        # eval forms
        ("eval-bare-name", ["eval", "referee-K'L'", "--at", "1/8,1/8"], None),
        ("eval-json-nullity", ["--json", "eval", "hopf", "2", "3",
                               "--at", "1/4,3/4,1/3,1/3,1/3"], None),
        ("eval-json-after", ["eval", "hopf", "2", "3", "--at", "1/4,3/4,1/3,1/3,1/3",
                             "--json"], None),
        # the hopf nullity when one angle sum is an integer, and at a unit coordinate
        ("eval-hopf-eta-integral", ["eval", "hopf", "3", "2",
                                    "--at", "1/3,1/3,1/3,1/4,1/4"], None),
        ("eval-hopf-zeta-integral", ["--json", "eval", "hopf", "3", "2",
                                     "--at", "1/5,1/5,1/5,1/2,1/2"], None),
        ("eval-hopf-unit", ["eval", "hopf", "2", "2", "--at", "0,1/3,1/2,1/2"], None),
        ("eval-zero", ["eval", "zero", "2", "--at", "1/3,1/5"], None),
        ("eval-file-splice", ["eval", "splice.json", "--at", "3/8,1/8,5/8"], None),
        ("eval-file-merge", ["eval", "merge.json", "--at", "2/7"], None),
        ("eval-file-cable", ["eval", "cable.json", "--at", "1/3,1/5,2/5"], None),
        ("eval-satellite", ["eval", inline({"satellite": [{"seifert": "trefoil.json"},
                                                          {"seifert": "trefoil.json"}, 2]}),
                            "--at", "1/5"], None),
        ("err-satellite-arity", ["eval", inline({"satellite": [{"seifert": "trefoil.json"},
                                                               {"hopf": [1, 1]}, 2]}),
                                 "--at", "1/5"], None),
        ("eval-trefoil", ["eval", inline({"seifert": "trefoil.json"}), "--at", "1/6"], None),
        ("eval-trefoil-json", ["--json", "eval", inline({"seifert": "trefoil.json"}),
                               "--at", "5/12"], None),
        ("eval-trefoil-nobasis", ["eval", inline({"seifert": "trefoil_nobasis.json"}),
                                  "--at", "1/6"], None),
        # sweep layouts
        ("sweep-plain", ["sweep", "torus-3-6", "--order", "5"], None),
        ("sweep-json", ["--json", "sweep", "hopf", "1", "2", "--order", "5"], None),
        ("sweep-units", ["sweep", "torus-2-4", "--order", "6", "--include-units"], None),
        ("sweep-units-json", ["sweep", "fixture", "cable-4-2", "--order", "4",
                              "--include-units", "--json"], None),
        ("sweep-units-torus-3-6", ["sweep", "torus-3-6", "--order", "4", "--include-units"],
         None),
        ("sweep-units-csv", ["sweep", "hopf", "1", "1", "--order", "6", "--include-units",
                             "--csv", "units.csv"], "units.csv"),
        # under --json a CSV report is one object too
        ("sweep-csv-json", ["--json", "sweep", "hopf", "1", "1", "--order", "3",
                            "--csv", "out.csv"], "out.csv"),
        ("sweep-guard", ["sweep", inline(guard_doc), "--order", "4", "--include-units"], None),
        ("sweep-guard-csv", ["sweep", inline(guard_doc), "--order", "4",
                             "--csv", "guard.csv"], "guard.csv"),
        ("sweep-cable-units", ["sweep", inline(cable_doc), "--order", "3",
                               "--include-units"], None),
        ("sweep-cable-units-json", ["sweep", inline(cable_doc), "--order", "3",
                                    "--include-units", "--json"], None),
        ("sweep-boundary", ["sweep", inline({"seifert": "stripped.json"}), "--order", "4",
                            "--include-units"], None),
        ("sweep-arity-0", ["sweep", "zero", "0", "--order", "1000000000"], None),
        ("sweep-seifert-json", ["--json", "sweep", inline({"seifert": "h22.json"}),
                                "--order", "6"], None),
        # defect-table with one, two and three colours
        ("defect-1", ["defect-table", "--lambda", "3", "--order", "10"], None),
        ("defect-1-json", ["--json", "defect-table", "--lambda", "3", "--order", "10"], None),
        ("defect-2-json", ["defect-table", "--lambda", "1,2", "--order", "6", "--json"], None),
        ("defect-2-neg", ["defect-table", "--lambda", "2,-1", "--order", "7"], None),
        ("defect-3", ["defect-table", "--lambda", "1,1,2", "--order", "4"], None),
        ("defect-3-json", ["--json", "defect-table", "--lambda", "1,-1,2", "--order", "3"],
         None),
        ("defect-csv", ["defect-table", "--lambda", "1,2", "--order", "5",
                        "--csv", "defect.csv"], "defect.csv"),
        ("defect-csv-json", ["--json", "defect-table", "--lambda", "1,2", "--order", "4",
                             "--csv", "out.csv"], "out.csv"),
        # verify
        ("verify", ["verify"], None),
        ("verify-json", ["--json", "verify"], None),
        ("verify-one-json", ["verify", "hopf-nullity", "--json"], None),
        # torus-sig
        ("torus-sig-3-4", ["torus-sig", "3", "4", "1/5"], None),
        ("torus-sig-2-5-json", ["torus-sig", "2", "5", "3/7", "--json"], None),
        ("torus-sig-5-2", ["torus-sig", "5", "2", "2/9"], None),
        ("torus-sig-1-1", ["torus-sig", "1", "1", "1/2"], None),
        ("torus-sig-2-7-json", ["--json", "torus-sig", "2", "7", "1/3"], None),
        # links and mirrors
        ("torus-sig-2-4", ["torus-sig", "2", "4", "1/3"], None),
        ("torus-sig-3-6", ["torus-sig", "3", "6", "1/5"], None),
        ("torus-sig-mirror", ["torus-sig", "-2", "3", "1/2"], None),
        # the torus knot leaf, its nullity, and the cable knot through satellite
        ("eval-torus-knot", ["eval", inline({"torus": [2, 3]}), "--at", "1/6"], None),
        ("eval-cable-knot", ["eval", inline({"satellite": [{"torus": [2, 3]},
                                                           {"torus": [2, 5]}, 2]}),
                             "--at", "1/3"], None),
        # a unit colour is deleted: every leaf and collapse reads 0 with no nullity
        ("eval-torus-unit", ["eval", inline({"torus": [2, 3]}), "--at", "0"], None),
        ("eval-trefoil-unit-json", ["--json", "eval", inline({"seifert": "trefoil.json"}),
                                    "--at", "0"], None),
        ("eval-merge-unit", ["eval", inline({"merge": [{"hopf": [1, 1]}, 1]}), "--at", "0"],
         None),
        ("sweep-merge-units", ["sweep", inline({"merge": [{"hopf": [1, 1]}, 1]}),
                               "--order", "4", "--include-units"], None),
        # a collapse holds several components in its one color: none is distinguished
        ("err-splice-collapse", ["eval", inline({"splice": [collapse, [], {"hopf": [1, 1]}, [1]]}),
                                 "--at", "1/3"], None),
        # nor does an operand of no colors
        ("err-splice-no-colors", ["eval", inline({"splice": [{"zero": 0}, [], {"hopf": [1, 1]},
                                                             [1]]}), "--at", "1/3"], None),
        ("err-satellite-collapse-companion",
         ["eval", inline({"satellite": [collapse, {"torus": [2, 3]}, 2]}), "--at", "1/3"], None),
        ("err-satellite-collapse-pattern",
         ["eval", inline({"satellite": [{"torus": [2, 3]}, collapse, 2]}), "--at", "1/3"], None),
        # a restated linking number is checked wherever it is derived: a merge
        # at any arity, the vector of a nested splice; each next to its true twin
        ("err-merge-3-colors", ["eval", inline({"merge": [{"fixture": "torus-3-6"}, 5]}),
                                "--at", "1/5,1/5"], None),
        ("eval-merge-3-colors", ["eval", inline({"merge": [{"fixture": "torus-3-6"}, 2]}),
                                 "--at", "1/5,1/5"], None),
        ("err-merge-unlinked", ["eval", inline({"merge": [{"hopf": [1, 2]}, 7]}),
                                "--at", "1/3,1/3"], None),
        ("eval-merge-unlinked", ["eval", inline({"merge": [{"hopf": [1, 2]}, 0]}),
                                 "--at", "1/3,1/3"], None),
        ("err-nested-splice-vector", ["eval", inline({"splice": [splice_doc, [7, 7],
                                                                 {"fixture": "torus-2-4"}, [2]]}),
                                      "--at", "1/7,1/7,1/7"], None),
        ("eval-nested-splice-vector", ["eval", inline({"splice": [splice_doc, [2, 2],
                                                                  {"fixture": "torus-2-4"}, [2]]}),
                                       "--at", "1/7,1/7,1/7"], None),
        # a one-color family with a basis is a knot exactly when theta+ - theta- has
        # full rank; hopf1.json's annulus bounds the two-component Hopf link
        ("err-family-no-knot-splice", ["eval", inline({"splice": [{"seifert": "hopf1.json"}, [],
                                                                  {"hopf": [1, 1]}, [1]]}),
                                       "--at", "1/3"], None),
        ("err-family-no-knot-satellite", ["eval", inline({"satellite": [
            {"seifert": "hopf1.json"}, {"torus": [2, 3]}, 2]}), "--at", "1/3"], None),
        # and no surface has one whose theta+ - theta- has an invariant factor 2
        ("err-family-no-surface", ["eval", inline({"seifert": "no-surface.json"}),
                                   "--at", "1/2"], None),
        # refusals with exit 2
        ("err-bad-angle", ["eval", "hopf", "1", "1", "--at", "1/0,1/2"], None),
        ("err-bad-angle-json", ["--json", "eval", "hopf", "1", "1", "--at", "x,1/2"], None),
        ("err-arity", ["eval", "hopf", "1", "1", "--at", "1/2"], None),
        ("err-unknown-fixture", ["eval", "nosuch", "--at", "1/2"], None),
        ("err-unknown-fixture-json", ["--json", "eval", "fixture", "nosuch", "--at", "1/2"],
         None),
        ("err-bad-shorthand", ["eval", "hopf", "x", "1", "--at", "1/2"], None),
        ("err-bad-zero", ["eval", "zero", "x", "--at", "1/2"], None),
        ("err-unreadable-tokens", ["eval", "a", "b", "c", "d", "--at", "1/2"], None),
        ("err-inline-json", ["eval", "{not json", "--at", "1/2"], None),
        ("err-unknown-form", ["--json", "eval", inline({"knot": 1}), "--at", "1/2"], None),
        ("err-hopf-counts", ["eval", inline({"hopf": [0, 1]}), "--at", "1/2"], None),
        # no form builds more colors than one --at can hold
        ("err-zero-colors-json", ["--json", "eval", inline({"zero": 10 ** 9}), "--at", "1/2"],
         None),
        ("err-cable-colors-json", ["--json", "sweep", inline({"cable": [{"hopf": [1, 1]},
                                                                        10 ** 7]}),
                                   "--order", "3"], None),
        ("err-missing-file", ["eval", "missing.json", "--at", "1/2"], None),
        ("err-missing-family", ["--json", "eval", inline({"seifert": "missing.json"}),
                                "--at", "1/2"], None),
        ("err-bad-file-json", ["eval", "broken.json", "--at", "1/2"], None),
        ("err-bad-family", ["eval", inline({"seifert": "invalid.json"}), "--at", "1/3"], None),
        ("err-bad-family-json", ["--json", "eval", inline({"seifert": "invalid.json"}),
                                 "--at", "1/3"], None),
        # a boundary family that breaks rules: its problems, each under its key
        ("err-bad-boundary", ["eval", inline({"seifert": "bad-boundary.json"}),
                              "--at", "1/3,1/3"], None),
        ("err-bad-boundary-json", ["--json", "eval", inline({"seifert": "bad-boundary.json"}),
                                   "--at", "1/3,1/3"], None),
        ("err-bad-boundary-nested", ["eval", inline({"seifert": "bad-boundary-nested.json"}),
                                     "--at", "1/3,1/3,1/3"], None),
        ("err-malformed-family", ["eval", inline({"seifert": "malformed.json"}),
                                  "--at", "1/3,1/3"], None),
        ("err-cable-no-linking", ["eval", inline({"cable": [{"zero": 2}, 2]}),
                                  "--at", "1/3,1/3,1/3"], None),
        # a family's linking matrix holds class totals, no component count:
        # H(2,2)'s color 0 is two copies, and a cable needs one.  The Hopf
        # link, spliced in, declares a color one component.
        ("err-cable-family-h22", ["eval", inline({"cable": [{"seifert": "h22.json"}, 2]}),
                                  "--at", "1/3,1/5,2/7"], None),
        ("err-cable-family-h22-json", ["--json", "eval",
                                       inline({"cable": [{"seifert": "h22.json"}, 2]}),
                                       "--at", "1/3,1/5,2/7"], None),
        ("err-cable-family-h12", ["eval", inline({"cable": [{"seifert": "h12.json"}, 2]}),
                                  "--at", "1/3,1/5,2/7"], None),
        ("err-cable-family-h12-json", ["--json", "eval",
                                       inline({"cable": [{"seifert": "h12.json"}, 2]}),
                                       "--at", "1/3,1/5,2/7"], None),
        ("eval-cable-hopf-unit-h12", ["eval", inline({"cable": [{"splice": [
            {"hopf": [1, 1]}, [1], {"seifert": "h12.json"}, [2]]}, 2]}),
                                      "--at", "1/3,1/5,2/7"], None),
        # h12's two colors link twice, and a component does not link itself
        ("err-merge-lk", ["eval", inline({"merge": [{"seifert": "h12.json"}, 1]}),
                          "--at", "2/7"], None),
        ("err-family-diagonal", ["eval", inline({"seifert": "diagonal.json"}),
                                 "--at", "1/3,1/3"], None),
        ("err-torus-link", ["eval", inline({"torus": [2, 4]}), "--at", "1/3"], None),
        ("err-level-bound", ["eval", inline({"seifert": "trefoil.json"}), "--at", "1/8633"],
         None),
        ("err-level-bound-json", ["--json", "eval", inline({"seifert": "trefoil.json"}),
                                  "--at", "1/8633"], None),
        ("err-grid-bound", ["sweep", "torus-3-6", "--order", "48"], None),
        ("err-grid-bound-json", ["--json", "sweep", "torus-3-6", "--order", "48"], None),
        ("err-grid-bound-csv", ["sweep", "torus-3-6", "--order", "48", "--csv", "big.csv"],
         "big.csv"),
        ("err-defect-grid-bound", ["defect-table", "--lambda", "1,1,1,1", "--order", "18",
                                   "--json"], None),
        ("err-bad-lambda", ["defect-table", "--lambda", "1,x", "--order", "4"], None),
        ("err-empty-order", ["sweep", "hopf", "1", "1", "--order", "0"], None),
        ("err-defect-order", ["--json", "defect-table", "--lambda", "1", "--order", "0"],
         None),
        ("err-unknown-suite", ["verify", "nosuch"], None),
        ("err-unknown-suite-json", ["--json", "verify", "nosuch"], None),
        ("err-torus-params", ["torus-sig", "0", "3", "1/3"], None),
        ("err-torus-unit", ["torus-sig", "2", "3", "0"], None),
        ("err-torus-angle-json", ["--json", "torus-sig", "2", "3", "1/x"], None),
        # exit 3 and exit 4
        ("guard", ["eval", inline(guard_doc), "--at", "1/2,1/2"], None),
        ("guard-json", ["--json", "eval", inline(guard_doc), "--at", "1/2,1/2"], None),
        ("cable-guard", ["eval", inline(cable_doc), "--at", "1/2,1/2,1/2,1/2"], None),
        # a knot first operand has no guard: splicing in the unknot deletes the
        # core, and a knot's copy product may be 1
        ("eval-splice-unknot", ["eval", inline({"splice": [{"zero": 1}, [],
                                                           {"fixture": "cable-4-2"}, [1, 1]]}),
                                "--at", "3/8,5/8"], None),
        ("eval-cable-knot-copies", ["eval", inline({"cable": [{"torus": [2, 3]}, 2]}),
                                    "--at", "1/3,2/3"], None),
        # nor has a knot second: each splice equals its knot-first twin
        ("eval-splice-knot-second", ["eval", inline({"splice": [{"hopf": [1, 1]}, [1],
                                                                {"torus": [2, 3]}, []]}),
                                     "--at", "0"], None),
        ("eval-splice-knot-second-twin", ["eval", inline({"splice": [{"torus": [2, 3]}, [],
                                                                     {"hopf": [1, 1]}, [1]]}),
                                          "--at", "0"], None),
        ("eval-splice-fixture-knot", ["eval", inline({"splice": [{"fixture": "torus-2-4"}, [2],
                                                                 {"torus": [2, 3]}, []]}),
                                      "--at", "1/2"], None),
        ("eval-splice-fixture-knot-twin", ["eval", inline({"splice": [
            {"torus": [2, 3]}, [], {"fixture": "torus-2-4"}, [2]]}), "--at", "1/2"], None),
        ("boundary", ["eval", inline({"seifert": "stripped.json"}), "--at", "0,1/3"], None),
        ("boundary-json", ["--json", "eval", inline({"seifert": "stripped.json"}),
                           "--at", "0,1/3"], None),
        # angle normalisation (reduction mod 1, negatives, unreduced) and defects
        ("eval-normalise", ["eval", "torus(3,6)", "--at", "9/8,-1/3,2/4"], None),
        ("defect-3-neg", ["defect-table", "--lambda", "1,-2,3", "--order", "12"], None),
        ("defect-3-neg-json", ["defect-table", "--lambda", "1,-2,3", "--order", "12",
                               "--json"], None),
        ("sweep-torus-2-4-json", ["sweep", "torus-2-4", "--order", "24", "--json"], None),
        # Hermitian inertia: a zero diagonal (the fold), kernel points, every orbit
        ("eval-hyperbolic-json", ["--json", "eval", inline({"seifert": "hyperbolic.json"}),
                                  "--at", "2/7"], None),
        ("sweep-h33", ["sweep", inline({"seifert": "h33.json"}), "--order", "6"], None),
        ("sweep-h44-json", ["--json", "sweep", inline({"seifert": "h44.json"}),
                            "--order", "4"], None),
    ]
    # Seifert-family evals of the Hopf families at levels 12, 60, 84 and 420
    for m in range(1, 5):
        for n in range(1, 5):
            for at in ("1/12,5/12", "7/60,1/4", "5/84,1/12", "1/420,13/420"):
                out.append((f"hopf-family-{m}{n}-{at}",
                            ["eval", inline({"seifert": f"h{m}{n}.json"}), "--at", at], None))
    return out


def _files():
    """The family and expression files the commands read, by relative name."""
    from splicesig.ccomplex import SeifertFamily
    from splicesig.hopf import hopf_seifert_family

    v = [[-1, 1], [0, -1]]
    vt = [list(r) for r in zip(*v)]
    files = {f"h{m}{n}.json": hopf_seifert_family(m, n).dumps()
             for m in range(1, 5) for n in range(1, 5)}
    src = hopf_seifert_family(1, 1)
    files["stripped.json"] = SeifertFamily(src.arity, src.forms, basis=src.basis,
                                           linking=src.linking).dumps()
    files["trefoil.json"] = SeifertFamily(1, {(1,): v, (-1,): vt}, basis=True,
                                          label="trefoil").dumps()
    files["trefoil_nobasis.json"] = SeifertFamily(1, {(1,): v, (-1,): vt},
                                                  label="trefoil").dumps()
    hyperbolic = [[0, 1], [0, 0]]
    files["hyperbolic.json"] = SeifertFamily(
        1, {(1,): hyperbolic, (-1,): [list(r) for r in zip(*hyperbolic)]}, basis=True,
        label="hyperbolic").dumps()
    # a family that breaks a rule cannot be built, so its document is written as
    # SeifertFamily.dumps would write it
    invalid = {"arity": 1, "basis": False, "generators": 2,
               "forms": {"+": [[1, 1], [0, 0]], "-": [[1, 1], [0, 0]]}}
    files["invalid.json"] = _dumps(invalid)
    files["malformed.json"] = json.dumps({"arity": 2, "forms": {"++": [[1]], "--": [[1]]}})
    files["broken.json"] = "{"
    files["splice.json"] = json.dumps({"splice": [{"fixture": "torus-2-4"}, [2],
                                                  {"fixture": "cable-4-2"}, [1, 1]]})
    files["merge.json"] = json.dumps({"merge": [{"seifert": "h12.json"}, 2]})
    h12 = hopf_seifert_family(1, 2)
    diagonal = dict(h12.to_json(), linking=[[5, 2], [2, 0]])
    del diagonal["label"]
    files["diagonal.json"] = _dumps(diagonal)
    # only one boundary family breaks rules, two of them; then the same one level down
    bad_boundary = h12.to_json()
    bad_boundary["boundary"]["0"] = dict(invalid, linking=[[1]])
    files["bad-boundary.json"] = _dumps(bad_boundary)
    signs = ("".join(s) for s in itertools.product("+-", repeat=3))
    files["bad-boundary-nested.json"] = _dumps(
        {"arity": 3, "basis": False, "generators": 0, "forms": {k: [] for k in signs},
         "boundary": {"0,1": bad_boundary}})
    files["cable.json"] = json.dumps({"cable": [{"hopf": [1, 1]}, 2]})
    files["hopf1.json"] = SeifertFamily(1, {(1,): [[-1]], (-1,): [[-1]]}, basis=True,
                                        label="hopf annulus").dumps()
    files["no-surface.json"] = _dumps({"arity": 1, "generators": 2, "basis": True,
                                       "forms": {"+": [[1, 2], [0, 1]], "-": [[1, 0], [2, 1]]}})
    return files


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _run(argv, csv, workdir: Path, read):
    """The transcript of one command run in workdir; read() returns what it
    wrote to stdout and stderr."""
    code = main(list(argv))
    out, err = read()
    path = workdir / csv if csv else None
    return {"exit": code, "stdout": out, "stderr": err,
            "csv": path.read_text() if path and path.exists() else None}


_DOC = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"files": {}, "cases": []}


@pytest.mark.parametrize("case", _DOC["cases"], ids=[c["id"] for c in _DOC["cases"]])
def test_transcript(case, tmp_path, monkeypatch, capsys):
    for name, text in _DOC["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    got = _run(case["argv"], case["csv_file"], tmp_path, capsys.readouterr)
    assert got == case["expect"]


def test_json_is_one_object_per_command():
    # errors and --csv reports included: a script reads one line and parses it
    cases = [c for c in _DOC["cases"] if "--json" in c["argv"]]
    assert len(cases) >= 30
    for case in cases:
        out = case["expect"]["stdout"]
        assert out.count("\n") == 1 and out.endswith("\n"), case["id"]
        assert isinstance(json.loads(out), dict), case["id"]


def test_transcripts_cover_every_exit_code():
    assert {c["expect"]["exit"] for c in _DOC["cases"]} == {0, 2, 3, 4}
    assert len(_DOC["cases"]) >= 60
    # each guarded form has a recorded GuardViolated refusal
    guarded = {form for c in _DOC["cases"] if c["expect"]["exit"] == 3
               for form in ("splice", "cable") if f'"{form}"' in " ".join(c["argv"])}
    assert guarded == {"splice", "cable"}


def _record() -> None:
    """Rewrite the golden file from the current code."""
    out, err = io.StringIO(), io.StringIO()

    def read():
        text = out.getvalue(), err.getvalue()
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        return text

    files = _files()
    cases = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        workdir = Path(tmp)
        for name, text in files.items():
            (workdir / name).write_text(text)
        os.chdir(workdir)
        try:
            for case_id, argv, csv in _cases():
                expect = _run(argv, csv, workdir, read)
                if csv and (workdir / csv).exists():
                    (workdir / csv).unlink()
                cases.append({"id": case_id, "argv": argv, "csv_file": csv,
                              "expect": expect})
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")
    print(f"recorded {len(cases)} commands to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
