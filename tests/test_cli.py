"""End-to-end CLI behavior: output shapes, exit codes, error envelopes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from splicesig import cyclotomic
from splicesig.ccomplex import SeifertFamily
from splicesig.cli import MAX_GRID_CELLS, main
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

    def test_unknown_fixture_exit_2(self, capsys):
        assert main(["eval", "nosuch", "--at", "1/2"]) == 2
        assert "known" in capsys.readouterr().err

    def test_arity_mismatch_exit_2(self):
        assert main(["eval", "hopf", "1", "1", "--at", "1/2"]) == 2

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
        bad = SeifertFamily(1, {(1,): [[1, 1], [0, 0]], (-1,): [[1, 1], [0, 0]]})
        path = tmp_path / "bad.json"
        path.write_text(bad.dumps())
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
    ])
    def test_malformed_family_document_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        character = ",".join(["1/3"] * int(doc["arity"]))
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", character]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: bad seifert family")

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
        # verify imports its process pool and numpy only when it needs them,
        # so neither adds to the start-up of every other command; each command
        # and expression form loads only the splicesig modules it runs
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


class TestTorusSig:
    def test_value(self, capsys):
        assert main(["torus-sig", "2", "3", "1/2"]) == 0
        assert capsys.readouterr().out == "-2\n"

    def test_json(self, capsys):
        assert main(["--json", "torus-sig", "2", "3", "1/12"]) == 0
        assert json.loads(capsys.readouterr().out) == {"signature": 0}

    def test_invalid_params_exit_2(self):
        assert main(["torus-sig", "2", "4", "1/2"]) == 2

    def test_unit_angle_exit_2(self):
        assert main(["torus-sig", "2", "3", "0"]) == 2
