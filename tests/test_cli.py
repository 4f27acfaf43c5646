"""End-to-end CLI behavior: output shapes, exit codes, error envelopes."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from splicesig import cyclotomic
from splicesig.cables import hirzebruch
from splicesig.ccomplex import SeifertFamily
from splicesig.cli import MAX_GRID_CELLS, main
from splicesig.expr import MAX_COLORS, MAX_DEPTH
from splicesig.hopf import hopf_seifert_family, sigma_k
from splicesig.torus import Angle

SRC = Path(__file__).resolve().parents[1] / "src"

TREFOIL_V = [[-1, 1], [0, -1]]


def trefoil_family(basis=True):
    return SeifertFamily(1, {(1,): TREFOIL_V,
                             (-1,): [list(r) for r in zip(*TREFOIL_V)]},
                         basis=basis, label="trefoil")


class TestEval:
    def test_hopf_with_nullity(self, capsys):
        assert main(["eval", "hopf", "2", "2", "--at", "1/3,1/3,1/3,1/3"]) == 0
        assert capsys.readouterr().out == "1\nnullity 0\n"

    def test_fixture_value(self, capsys):
        assert main(["eval", "fixture", "referee-L", "--at", "1/8,1/8,1/8"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_bare_fixture_name(self, capsys):
        assert main(["eval", "referee-K'L'", "--at", "1/8,1/8"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_merge_at_the_unit_reads_0(self, capsys):
        # the merged color is deleted at 0, and with it the linking number
        assert main(["eval", '{"merge": [{"hopf": [1, 1]}, 1]}', "--at", "0"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_json_output(self, capsys):
        assert main(["--json", "eval", "hopf", "2", "3",
                     "--at", "1/4,3/4,1/3,1/3,1/3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"signature": 0, "nullity": 2}

    def test_json_flag_after_subcommand(self, capsys):
        assert main(["eval", "hopf", "2", "3",
                     "--at", "1/4,3/4,1/3,1/3,1/3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"signature": 0, "nullity": 2}
        assert main(["torus-sig", "2", "3", "1/2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"signature": -2}

    def test_inline_json_guard_exit_3(self, capsys):
        doc = json.dumps({"splice": [{"merge": [{"hopf": [1, 2]}, 0]}, [2],
                                     {"merge": [{"hopf": [1, 2]}, 0]}, [2]]})
        assert main(["eval", doc, "--at", "1/2,1/2"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_json_error_envelope(self, capsys):
        doc = json.dumps({"splice": [{"merge": [{"hopf": [1, 2]}, 0]}, [2],
                                     {"merge": [{"hopf": [1, 2]}, 0]}, [2]]})
        assert main(["--json", "eval", doc, "--at", "1/2,1/2"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "GuardViolated"

    def test_cable_of_a_one_color_link_exit_2(self, capsys):
        # merging the Hopf link's two colors leaves one color of two
        # components, no knot: its cable is refused, not evaluated
        doc = json.dumps({"cable": [{"merge": [{"hopf": [1, 1]}, 1]}, 2]})
        assert main(["eval", doc, "--at", "1/3,1/3"]) == 2
        assert "has no linking vector" in capsys.readouterr().err

    def test_unknown_fixture_exit_2(self, capsys):
        assert main(["eval", "nosuch", "--at", "1/2"]) == 2
        assert "known" in capsys.readouterr().err

    def test_arity_mismatch_exit_2(self):
        assert main(["eval", "hopf", "1", "1", "--at", "1/2"]) == 2

    def test_at_reads_like_character(self, capsys):
        # --at is read by torus.character: "" is the one point of T^0
        assert main(["eval", "zero", "0", "--at", ""]) == 0
        assert capsys.readouterr().out == "0\n"
        assert main(["eval", "hopf", "1", "1", "--at", "1/2,"]) == 2
        assert "bad character '1/2,'" in capsys.readouterr().err

    def test_hopf_over_the_component_bound_exit_2_fast(self, capsys):
        # an --at argument cannot hold more angles, so the link is never built
        start = time.perf_counter()
        assert main(["eval", "hopf", "30000000", "1", "--at", "1/2"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"at most {MAX_COLORS} colors" in capsys.readouterr().err
        assert main(["eval", "hopf", "2", "3", "--at", "1/4,3/4,1/3,1/3,1/3"]) == 0
        assert capsys.readouterr().out == "0\nnullity 2\n"

    def test_bad_angle_exit_2(self):
        assert main(["eval", "hopf", "1", "1", "--at", "1/0,1/2"]) == 2

    def test_seifert_boundary_exit_4(self, tmp_path, capsys):
        src = hopf_seifert_family(1, 1)
        stripped = SeifertFamily(src.arity, src.forms, basis=src.basis,
                                 linking=src.linking)
        path = tmp_path / "fam.json"
        path.write_text(stripped.dumps())
        assert main(["--json", "eval", json.dumps({"seifert": str(path)}),
                     "--at", "0,1/3"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "BoundaryCharacter"

    def test_seifert_nullity_printed(self, tmp_path, capsys):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family().dumps())
        assert main(["eval", json.dumps({"seifert": str(path)}),
                     "--at", "1/6"]) == 0
        assert capsys.readouterr().out == "-1\nnullity 1\n"

    def test_seifert_family_loaded_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family().dumps())
        loaded = []
        load = SeifertFamily.load.__func__

        def counting_load(cls, p):
            loaded.append(p)
            return load(cls, p)

        monkeypatch.setattr(SeifertFamily, "load", classmethod(counting_load))
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/6"]) == 0
        assert capsys.readouterr().out == "-1\nnullity 1\n"
        assert loaded == [str(path)]

    def test_invalid_seifert_family_exit_2(self, tmp_path, capsys):
        # the - form is not the transpose of the + form
        bad = {"arity": 1, "forms": {"+": [[1, 1], [0, 0]], "-": [[1, 1], [0, 0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not the conjugate" in out.err
        assert out.err.count("duality broken") == 1

    def test_one_inertia_per_eval(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family().dumps())
        calls = []
        inertia = cyclotomic._inertia

        def counting_inertia(mat, lv):
            calls.append(len(mat))
            return inertia(mat, lv)

        monkeypatch.setattr(cyclotomic, "_inertia", counting_inertia)
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/6"]) == 0
        assert capsys.readouterr().out == "-1\nnullity 1\n"
        assert calls == [2]

    @pytest.mark.parametrize("doc", [
        {"arity": 2, "forms": {"++": [[1]], "--": [[1]]}},           # no +- or -+ form
        {"arity": 1, "forms": {"+": [[1, 0], [0]], "-": [[1, 0], [0]]}},  # ragged rows
        {"arity": 1, "forms": {"+": [[1.5]], "-": [[1.5]]}},          # float form entry
        {"arity": 1, "forms": {"+": [[True]], "-": [[True]]}},        # boolean form entry
        {"arity": 1, "forms": {"+": [["1"]], "-": [["1"]]}},          # string form entry
        {"arity": 2, "forms": {"++": [[0]], "+-": [[0]], "-+": [[0]], "--": [[0]]},
         "linking": [[0, 0.7], [0.7, 0]]},                            # float linking entry
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "basis": "false"},  # string basis
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "basis": 1},  # integer basis
        {"arity": 1.0, "forms": {"+": [[1]], "-": [[1]]}},            # float arity
        {"arity": 1, "generators": 1.5, "forms": {"+": [[1]], "-": [[1]]}},  # float count
        {"arity": 1, "generators": True, "forms": {"+": [[1]], "-": [[1]]}},  # boolean count
        {"arity": 1, "forms": {"+": [[-1, 1], [0, -1]], "x": [[-1, 0], [1, -1]]}},  # bad sign
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]], "−": [[1]]}},  # one direction twice
        # a label that is no string: sweep would print its Python repr as a header
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "label": {"x": [1, 2]}},
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "label": ["x"]},
        {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "label": 7},
    ])
    def test_malformed_family_document_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        character = ",".join(["1/3"] * int(doc["arity"]))
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", character]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: bad seifert family")

    def test_string_label_heads_the_sweep(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"arity": 1, "forms": {"+": [[1]], "-": [[1]]},
                                    "label": "one"}))
        assert main(["sweep", json.dumps({"seifert": str(path)}), "--order", "4"]) == 0
        assert capsys.readouterr().out.startswith("# one  order 4  3 cells\n")

    def test_non_integer_boundary_key_exit_2(self, tmp_path, capsys):
        doc = hopf_seifert_family(2, 2).to_json()
        doc["boundary"] = {"1.0": doc["boundary"]["1"]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/3,1/3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: bad seifert family")
        assert "bad boundary key '1.0'" in out.err

    def test_level_over_bound_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family().dumps())
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/8633"]) == 2
        assert "exceeds the supported bound" in capsys.readouterr().err

    def test_seifert_nullity_gated_without_basis(self, tmp_path, capsys):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family(basis=False).dumps())
        assert main(["eval", json.dumps({"seifert": str(path)}),
                     "--at", "1/6"]) == 0
        assert capsys.readouterr().out == "-1\n"


    def test_eval_never_imports_mpmath(self, tmp_path):
        # certified signs are integer work: a fresh process evaluates a
        # Seifert family (pivot signs at level 63) without loading mpmath
        path = tmp_path / "hopf-2-3.json"
        path.write_text(hopf_seifert_family(2, 3).dumps())
        code = ("import sys; from splicesig.cli import main; rc = main(sys.argv[1:]); "
                "print('mpmath' in sys.modules); sys.exit(rc)")
        proc = subprocess.run(
            [sys.executable, "-c", code, "eval", json.dumps({"seifert": str(path)}),
             "--at", "1/7,2/9"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        want = sigma_k(2, Angle(Fraction(1, 7))) * sigma_k(3, Angle(Fraction(2, 9)))
        lines = proc.stdout.splitlines()
        assert lines[0] == str(want)
        assert lines[-1] == "False"

    def test_cold_start_imports_no_pool_or_numpy(self, tmp_path):
        # verify forks its workers with os.fork, importing no process pool,
        # and no command imports numpy, so neither adds to the start-up of
        # any command; each command and expression form loads only the
        # splicesig modules it runs
        path = tmp_path / "hopf-1-1.json"
        path.write_text(hopf_seifert_family(1, 1).dumps())
        heavy = {"cyclotomic", "ccomplex", "fixtures", "hopf", "cables", "verify"}
        cases = [
            ([], heavy),
            (["eval", "zero", "1", "--at", "1/2"], {"cyclotomic"}),
            (["eval", "torus-3-6", "--at", "1/8,1/8,1/8"],
             {"ccomplex", "hopf", "cables", "verify"}),
            (["eval", json.dumps({"seifert": str(path)}), "--at", "1/3,1/3"],
             {"fixtures", "hopf", "cables", "verify"}),
            (["eval", "hopf", "2", "2", "--at", "1/3,1/3,1/3,1/3"],
             {"ccomplex", "cyclotomic", "fixtures", "cables", "verify"}),
            (["torus-sig", "5", "7", "1/3"],
             {"hopf", "ccomplex", "cyclotomic", "fixtures", "verify"}),
            (["eval", json.dumps({"torus": [2, 3]}), "--at", "1/3"],
             {"hopf", "ccomplex", "cyclotomic", "fixtures", "verify"}),
            # a cable's zero base and a satellite's pattern-plus-axis are
            # built in splice, loading nothing the leaves do not
            (["eval", json.dumps({"cable": [{"hopf": [1, 2]}, 2]}),
              "--at", "1/3,1/3,1/3,1/3"],
             {"cables", "ccomplex", "cyclotomic", "fixtures", "verify"}),
            (["eval", json.dumps({"satellite": [{"torus": [2, 3]}, {"torus": [2, 5]}, 2]}),
              "--at", "1/3"],
             {"hopf", "ccomplex", "cyclotomic", "fixtures", "verify"}),
            # one criterion runs in-process, so its imports are visible here
            (["verify", "hopf-spectrum"], set()),
            (["verify"], set()),
        ]
        code = ("import sys; from splicesig.cli import main; "
                "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
                "print(sorted(m for m in ('numpy', 'multiprocessing', "
                "'concurrent.futures') if m in sys.modules)); "
                "print(' '.join(sorted(m.split('.')[1] for m in sys.modules "
                "if m.startswith('splicesig.')))); sys.exit(rc)")
        for args, absent in cases:
            proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                                  text=True, timeout=120,
                                  env=dict(os.environ, PYTHONPATH=str(SRC)))
            assert proc.returncode == 0, (args, proc.stderr)
            *_, stdlib, loaded = proc.stdout.splitlines()
            assert stdlib == "[]", args
            assert not absent & set(loaded.split()), (args, loaded)


    def test_verify_runs_without_numpy(self):
        # numpy is a test-only oracle: with its import blocked, every criterion
        # still passes, in the forked workers as in the parent
        code = ("import sys; sys.modules['numpy'] = None; "
                "from splicesig.cli import main; sys.exit(main(['verify']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "all 9 criteria passed"


class TestSweep:
    def test_table_structure(self, capsys):
        assert main(["sweep", "referee-K'L'", "--order", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# torus(2,4)")
        assert len(lines) == 1 + 49
        assert lines[1] == "1/8,1/8\t1"
        values = {line.split("\t")[1] for line in lines[1:]}
        assert values == {"1", "0", "-1"}

    def test_hopf_one_sided_all_zero(self, capsys):
        assert main(["sweep", "hopf", "1", "3", "--order", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 3 ** 4
        assert {line.split("\t")[1] for line in lines} == {"0"}

    def test_csv_with_guard_cells(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        doc = json.dumps({"splice": [{"fixture": "torus-2-4"}, [2],
                                     {"fixture": "cable-4-2"}, [1, 1]]})
        assert main(["sweep", doc, "--order", "8", "--csv", str(out)]) == 0
        assert "343 rows" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega_0,omega_1,omega_2,signature"
        assert lines[1] == "1/8,1/8,1/8,4"
        assert sum(1 for line in lines if line.endswith(",guard")) == 7

    def test_include_units(self, capsys):
        assert main(["sweep", "referee-K'L'", "--order", "2",
                     "--include-units"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert lines == ["0/2,0/2\t0", "0/2,1/2\t0", "1/2,0/2\t0", "1/2,1/2\t-1"]

    def test_deterministic(self, capsys):
        main(["sweep", "fixture", "cable-4-2", "--order", "4"])
        first = capsys.readouterr().out
        main(["sweep", "fixture", "cable-4-2", "--order", "4"])
        assert capsys.readouterr().out == first


class TestDefectTable:
    def test_matrix_layout(self, capsys):
        assert main(["defect-table", "--lambda", "1,2", "--order", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 6
        assert lines[2].split("\t")[0] == "0/6"

    def test_json_cells(self, capsys):
        assert main(["--json", "defect-table", "--lambda", "1,2",
                     "--order", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == [1, 2] and len(payload["cells"]) == 16
        cell = next(c for c in payload["cells"] if c["at"] == ["1/4", "1/4"])
        assert cell["defect"] == -2

    def test_bad_lambda_exit_2(self):
        assert main(["defect-table", "--lambda", "1,x"]) == 2


class TestGridBound:
    """sweep and defect-table refuse a grid above MAX_GRID_CELLS before any cell."""

    OVER = [["sweep", "torus-3-6", "--order", "48"],            # 47^3 = 103 823 cells
            ["defect-table", "--lambda", "1,2", "--order", "317"]]  # 317^2 = 100 489

    def test_bound_sits_between_these_grids(self):
        assert 46 ** 3 <= 316 ** 2 <= MAX_GRID_CELLS < 317 ** 2 < 47 ** 3

    @pytest.mark.parametrize("argv", OVER, ids=["sweep", "defect-table"])
    def test_over_bound_exit_2_fast(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert "exceeds the limit" in out.err

    @pytest.mark.parametrize("argv", OVER, ids=["sweep", "defect-table"])
    def test_over_bound_json_is_only_the_error(self, argv, capsys):
        assert main(["--json"] + argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert "exceeds the limit" in payload["error"]["message"]

    @pytest.mark.parametrize("argv", OVER, ids=["sweep", "defect-table"])
    def test_over_bound_writes_no_csv(self, argv, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        assert main(argv + ["--csv", str(path)]) == 2
        assert capsys.readouterr().out == ""
        assert not path.exists()


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _merges(depth):
    """depth merges around a zero evaluator, concatenated: json.dumps recurses."""
    return '{"merge": [' * depth + f'{{"zero": {depth + 1}}}' + ', 0]}' * depth


def _cables(depth):
    """depth one-copy cables around the widest Hopf link, MAX_COLORS colors at each
    level: 4 116 bytes at MAX_DEPTH."""
    return '{"cable": [' * depth + f'{{"hopf": [1, {MAX_COLORS - 1}]}}' + ', 1]}' * depth


def _deep_family(depth):
    """An arity-1 family whose boundary key "0", which keeps its one colour, nests depth deep."""
    doc = '{"arity": 1, "forms": {"+": [[1]], "-": [[1]]}'
    return (doc + ', "boundary": {"0": ') * depth + doc + "}" + "}}" * depth


def _descending_family(arity):
    """A family of the given arity whose boundary keeps every colour but the last,
    down to arity 1: arity - 1 boundary families deep, each key valid."""
    doc = '{"arity": 1, "forms": {}}'
    for mu in range(2, arity + 1):
        key = ",".join(map(str, range(mu - 1)))
        doc = '{"arity": %d, "forms": {}, "boundary": {"%s": %s}}' % (mu, key, doc)
    return doc


def _run_cli(argv, cwd):
    code = "import sys; from splicesig.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, "--json", *argv],
                          capture_output=True, text=True, timeout=10, cwd=cwd,
                          preexec_fn=_cap_memory, env=dict(os.environ, PYTHONPATH=str(SRC)))


class TestRefusalsFailFast:
    """Inputs a few bytes long that would need seconds or gigabytes to compute,
    and documents nested deeper than the reader or the evaluator can recurse,
    are refused first: each runs in a process capped at 1 GiB and 10 s."""

    CASES = [
        (["eval", json.dumps({"seifert": "arity-40.json"}), "--at", "1/2"],
         "ExpressionError", "0 of the 2^40 are given"),
        (["sweep", json.dumps({"zero": 6000}), "--order", "8"],
         "UsageError", "grid of 7^6000 cells"),
        (["sweep", json.dumps({"cable": [{"hopf": [1, 1]}, 10 ** 7]}), "--order", "8"],
         "ExpressionError", f"cable takes at most {MAX_COLORS} colors"),
        (["eval", json.dumps({"zero": 10 ** 9}), "--at", "1/2"],
         "ExpressionError", f"zero takes at most {MAX_COLORS} colors"),
        (["eval", json.dumps({"seifert": "trefoil.json"}), "--at", "1/8633"],
         "LevelMismatch", "level 8633 exceeds the supported bound"),
        (["eval", "hopf", "30000000", "1", "--at", "1/2"],
         "ExpressionError", f"hopf takes at most {MAX_COLORS} colors"),
        (["sweep", "torus-3-6", "--order", "48"],
         "UsageError", "grid of 103823 cells"),
        (["eval", _merges(450), "--at", "1/2"],
         "ExpressionError", f"nests combinators more than {MAX_DEPTH} deep"),
        (["eval", _merges(5000), "--at", "1/2"],
         "UsageError", "invalid JSON expression: maximum recursion depth"),
        (["eval", "merge-5000.json", "--at", "1/2"],
         "UsageError", "invalid JSON in 'merge-5000.json': maximum recursion depth"),
        (["eval", json.dumps({"seifert": "deep-700.json"}), "--at", "1/2"],
         "ExpressionError", "bad seifert family 'deep-700.json': maximum recursion depth"),
        (["eval", json.dumps({"seifert": "chain.json"}), "--at", "1/2"],
         "ExpressionError", f"'chain.json': boundary families nest more than {MAX_DEPTH} deep"),
        # each cable's linking vector is derived in bulk, not one color at a time
        (["sweep", _cables(MAX_DEPTH), "--order", "3"],
         "UsageError", f"grid of 2^{MAX_COLORS} cells"),
    ]

    @pytest.mark.parametrize("argv, kind, message", CASES, ids=[
        "family-arity", "grid-arity", "cable-copies", "zero-arity", "level-bound",
        "hopf-components",
        "grid-cells", "merge-450", "merge-5000", "merge-5000-file", "family-700",
        "family-chain", "cable-chain"])
    def test_refused_within_time_and_memory(self, argv, kind, message, tmp_path):
        (tmp_path / "arity-40.json").write_text(json.dumps({"arity": 40, "forms": {}}))
        (tmp_path / "trefoil.json").write_text(trefoil_family().dumps())
        (tmp_path / "merge-5000.json").write_text(_merges(5000))
        (tmp_path / "deep-700.json").write_text(_deep_family(700))
        (tmp_path / "chain.json").write_text(_descending_family(MAX_DEPTH + 2))
        proc = _run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == kind
        assert message in error["message"]

    def test_documents_at_the_depth_limit_evaluate(self, tmp_path):
        assert MAX_DEPTH >= 200
        proc = _run_cli(["eval", _merges(MAX_DEPTH), "--at", "1/2"], tmp_path)
        assert (proc.returncode, proc.stdout) == (0, '{"signature": 0}\n'), proc.stderr
        # satellites with the zero pattern and winding number 1 around the
        # trefoil: each keeps its companion's value, T(2,3)'s at 1/3
        knot = '{"satellite": [{"torus": [2, 3]}, {"zero": 1}, 1]}'
        doc = '{"satellite": [' * (MAX_DEPTH - 1) + knot + ', {"zero": 1}, 1]}' * (MAX_DEPTH - 1)
        want = hirzebruch(2, 3, Angle("1/3"))
        assert want == -2
        proc = _run_cli(["eval", doc, "--at", "1/3"], tmp_path)
        assert (proc.returncode, proc.stdout) == (0, f'{{"signature": {want}}}\n'), proc.stderr


def _merged_hopf(depth, n):
    """depth merges, each of the last two colors, around hopf(1, n): lk 0 every time."""
    return '{"merge": [' * depth + f'{{"hopf": [1, {n}]}}' + ', 0]}' * depth


def _cap_small():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 28, 2 ** 28))


class TestLinkDataCost:
    """Link data costs what a node's runs of alike colors hold, not its colors
    times its depth: the widest documents at the depth limit, and the
    collapse of the widest Hopf link, each run in a process capped at 256 MiB
    and 3 s."""

    CLI = "import sys; from splicesig.cli import main; sys.exit(main(sys.argv[1:]))"
    CASES = [
        ([CLI, "--json", "sweep", '{"cable": [' + _merged_hopf(MAX_DEPTH - 1, MAX_COLORS - 1)
          + ', 1]}', "--order", "3"], 2, "grid of 2^65281 cells"),
        ([CLI, "--json", "sweep", _cables(MAX_DEPTH), "--order", "3"],
         2, f"grid of 2^{MAX_COLORS} cells"),
        # each merge checks the lk of two colors, which the operand knows
        ([CLI, "--json", "eval", _merged_hopf(MAX_DEPTH, 257), "--at", "1/2,1/2"],
         0, '{"signature": 0}\n'),
        (["from splicesig.hopf import hopf_sig_fn; from splicesig.splice import "
          "to_levine_tristram; from splicesig.torus import Angle; "
          f"print(to_levine_tristram(hopf_sig_fn(1, {MAX_COLORS - 1}))((Angle('1/3'),)))"],
         0, f"{-(MAX_COLORS - 1)}\n"),
    ]

    @staticmethod
    def _run(argv, tmp_path):
        return subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True,
                              timeout=3, cwd=tmp_path, preexec_fn=_cap_small,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))

    @pytest.mark.parametrize("argv, code, out", CASES,
                             ids=["cable-of-merges", "cable-chain", "merge-chain", "collapse"])
    def test_within_time_and_memory(self, argv, code, out, tmp_path):
        proc = self._run(argv, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert out in proc.stdout

    @pytest.mark.parametrize("depth", [0, MAX_DEPTH - 6])
    def test_a_restated_vector_is_held_once(self, depth, tmp_path):
        # a vector of alternating entries, as long as the color limit allows;
        # or row 0 of a splice, then cables of two copies, each reading it in
        # its own linking vector
        k, alternating = MAX_COLORS - 2 - depth, [i % 2 for i in range(MAX_COLORS - 2 - depth)]
        doc = {"splice": [{"hopf": [1, 1]}, [1], {"zero": k + 1}, alternating] if depth
               else [{"zero": k + 1}, alternating, {"hopf": [1, 1]}, [1]]}
        for _ in range(depth):
            doc = {"cable": [doc, 2]}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        proc = self._run([self.CLI, "--json", "sweep", "doc.json", "--order", "3"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"grid of 2^{k + 1 + depth} cells" in proc.stdout


class TestUsageError:
    """Command-line refusals report the public UsageError type, with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["defect-table", "--lambda", "1,2", "--order", "317"],   # grid over the bound
        ["torus-sig", "2", "3", "1/0"],                           # bad angle
        ["eval", "hopf", "1", "1", "--at", "1/0,1/2"],            # bad character
        ["eval", "no-such-dir/expr.json", "--at", "1/2"],         # missing file
    ], ids=["grid-bound", "bad-angle", "bad-character", "missing-file"])
    def test_json_type_is_usage_error(self, argv, capsys):
        assert main(["--json"] + argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "UsageError"


class TestVerify:
    def test_help_lists_the_suites_without_importing_verify(self, capsys):
        # the parser lists the suites from a copy, so that only verify loads verify
        from splicesig import cli, verify
        assert cli.SUITES == tuple(verify.suite_names())
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        # argparse wraps the list, also at hyphens
        assert ",".join(cli.SUITES) in "".join(capsys.readouterr().out.split())

    def test_single_suite(self, capsys):
        assert main(["verify", "univariate-reduction"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS univariate-reduction")
        assert "all 1 criteria passed" in out

    def test_json_result(self, capsys):
        assert main(["--json", "verify", "hirzebruch"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["results"][0]["name"] == "hirzebruch"

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nope"]) == 2
        assert "known" in capsys.readouterr().err

    def test_failed_check_exit_1_in_either_layout(self, capsys, monkeypatch):
        # text: the criteria on stdout, the failures named on stderr; --json:
        # one object on stdout and nothing on stderr
        from splicesig import verify
        monkeypatch.setattr(verify, "run_suite", lambda suite: [
            verify.CriterionResult("fine", True, "ok"),
            verify.CriterionResult("off", False, "1 != 2")])
        assert main(["verify"]) == 1
        assert capsys.readouterr() == (f"PASS {'fine':<22} ok\nFAIL {'off':<22} 1 != 2\n",
                                       "1 of 2 criteria failed: off\n")
        assert main(["--json", "verify"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        assert json.loads(out) == {"passed": False, "results": [
            {"name": "fine", "passed": True, "detail": "ok"},
            {"name": "off", "passed": False, "detail": "1 != 2"}]}


class TestTorusSig:
    def test_value(self, capsys):
        assert main(["torus-sig", "2", "3", "1/2"]) == 0
        assert capsys.readouterr().out == "-2\n"

    def test_json(self, capsys):
        assert main(["--json", "torus-sig", "2", "3", "1/12"]) == 0
        assert json.loads(capsys.readouterr().out) == {"signature": 0}

    def test_invalid_params_exit_2(self):
        assert main(["torus-sig", "0", "3", "1/2"]) == 2

    def test_links_and_mirrors(self, capsys):
        # T(2,4), T(3,6) and the mirrored trefoil answer instead of exiting 2
        assert main(["torus-sig", "2", "4", "1/2"]) == 0
        assert main(["torus-sig", "3", "6", "1/5"]) == 0
        assert main(["torus-sig", "-2", "3", "1/2"]) == 0
        assert capsys.readouterr().out == "-3\n-6\n2\n"

    def test_unit_angle_exit_2(self):
        assert main(["torus-sig", "2", "3", "0"]) == 2
