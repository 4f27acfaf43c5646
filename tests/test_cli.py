"""End-to-end CLI behavior: output shapes, exit codes, error envelopes."""

import json

import pytest

from splicesig.ccomplex import SeifertFamily
from splicesig.cli import main
from splicesig.hopf import hopf_seifert_family

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

    def test_invalid_seifert_family_exit_2(self, tmp_path, capsys):
        # the - form is not the transpose of the + form
        bad = SeifertFamily(1, {(1,): [[1, 1], [0, 0]], (-1,): [[1, 1], [0, 0]]})
        path = tmp_path / "bad.json"
        path.write_text(bad.dumps())
        assert main(["eval", json.dumps({"seifert": str(path)}), "--at", "1/3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not the conjugate" in out.err

    def test_seifert_nullity_gated_without_basis(self, tmp_path, capsys):
        path = tmp_path / "trefoil.json"
        path.write_text(trefoil_family(basis=False).dumps())
        assert main(["eval", json.dumps({"seifert": str(path)}),
                     "--at", "1/6"]) == 0
        assert capsys.readouterr().out == "-1\n"


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


class TestVerify:
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
