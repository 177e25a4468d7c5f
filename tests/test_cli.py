"""End-to-end tests of the command-line interface (in-process)."""

import json

import pytest

from kneserdom import TABLE3_PACKINGS
from kneserdom.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestCompute:
    def test_petersen_domination_text(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "5", "--r", "2", "--k", "1",
        )
        assert code == EXIT_OK
        assert "value: 3" in out
        assert "status: optimal" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--invariant", "gamma_xk",
            "--n", "6", "--r", "2", "--k", "2", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 6
        assert doc["status"] == "optimal"
        assert len(doc["witness"]) == 6

    def test_csv_format_emits_witness_rows(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--invariant", "rho2",
            "--n", "7", "--r", "3", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        assert len(rows) == 7
        assert all(len(row.split()) == 3 for row in rows)

    def test_undefined_exits_ok(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--invariant", "gamma_xkt",
            "--n", "4", "--r", "2", "--k", "2",
        )
        assert code == EXIT_OK
        assert "status: undefined" in out

    def test_timeout_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--invariant", "rho2",
            "--n", "11", "--r", "5", "--timeout", "0.05",
        )
        if code == EXIT_TIMEOUT:
            assert "status: bounds" in out
        else:  # closed despite the tiny budget
            assert code == EXIT_OK

    def test_missing_k_fails(self, capsys):
        code, _, err = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "5", "--r", "2",
        )
        assert code == EXIT_FAIL
        assert "--k is required" in err

    def test_bad_parameters_fail(self, capsys):
        code, _, err = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "3", "--r", "2", "--k", "1",
        )
        assert code == EXIT_FAIL
        assert "need n >= 2r" in err

    def test_vertex_ceiling_flag(self, capsys):
        code, _, err = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "9", "--r", "2", "--k", "1", "--vertex-ceiling", "10",
        )
        assert code == EXIT_FAIL
        assert "exceeding the ceiling" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run(capsys, "compute", "--invariant", "bogus")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag", [["--threads", "2"], ["--seed", "1"], ["--attempt-open"]]
    )
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        code, _, _ = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "5", "--r", "2", "--k", "2", *flag,
        )
        assert code == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE


class TestVerify:
    def test_valid_packing(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "pack.json",
            {"n": 12, "r": 5, "sets": TABLE3_PACKINGS[5]},
        )
        code, out, _ = run(
            capsys, "verify", "--invariant", "rho2", "--input", path,
        )
        assert code == EXIT_OK
        assert "valid: True" in out

    def test_two_packing_alias(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "pack.json",
            {"n": 9, "r": 4, "sets": TABLE3_PACKINGS[4]},
        )
        code, _, _ = run(
            capsys, "verify", "--invariant", "two_packing", "--input", path,
        )
        assert code == EXIT_OK

    def test_mutated_packing_fails_with_violation(self, capsys, tmp_path):
        sets = [list(s) for s in TABLE3_PACKINGS[5]]
        sets[0] = [1, 2, 3, 4, 10]
        path = write_doc(tmp_path, "bad.json", {"n": 12, "r": 5, "sets": sets})
        code, out, _ = run(
            capsys, "verify", "--invariant", "rho2", "--input", path,
            "--format", "json",
        )
        assert code == EXIT_FAIL
        doc = json.loads(out)
        assert doc["valid"] is False
        assert len(doc["violation"]) == 2

    def test_domination_verify(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "dom.json",
            {"n": 5, "r": 2, "sets": [[1, 2], [1, 3], [1, 4], [1, 5]]},
        )
        code, out, _ = run(
            capsys, "verify", "--invariant", "gamma_k", "--k", "2",
            "--input", path,
        )
        assert code == EXIT_OK

    def test_malformed_document_message(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"n": 7, "r": 3, "sets": [[1, 2]]})
        code, _, err = run(
            capsys, "verify", "--invariant", "rho2", "--input", path,
        )
        assert code == EXIT_FAIL
        assert "malformed family document" in err
        assert "sets[0]: expected 3 elements, got 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "verify", "--invariant", "rho2", "--input", "/nonexistent",
        )
        assert code == EXIT_FAIL
        assert "error:" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(json.dumps(
                {"n": 7, "r": 3, "sets": [[1, 2, 3], [1, 4, 5]]}
            )),
        )
        code, _, _ = run(
            capsys, "verify", "--invariant", "rho2", "--input", "-",
        )
        assert code == EXIT_OK


class TestConstruct:
    def test_disjoint_clique_json(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--name", "disjoint_clique",
            "--k", "2", "--r", "2", "--format", "json", "--check",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 8 and doc["r"] == 2
        assert doc["sets"] == [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert doc["meta"]["construction"] == "disjoint_clique"

    def test_table3_csv(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--name", "table3", "--r", "6",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 10

    def test_rho4_with_check(self, capsys):
        code, _, _ = run(
            capsys, "construct", "--name", "rho4", "--r", "9", "--t", "3",
            "--check",
        )
        assert code == EXIT_OK

    def test_lift_pipeline(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "construct", "--name", "rho3", "--r", "3", "--t", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        path = tmp_path / "base.json"
        path.write_text(out)
        code, out, _ = run(
            capsys, "construct", "--name", "doubling_lift", "--a", "2",
            "--input", str(path), "--format", "json", "--check",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["n"], doc["r"]) == (11, 5)
        assert len(doc["sets"]) == 6

    def test_diagonal_lift(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "base.json", {"n": 9, "r": 4, "sets": TABLE3_PACKINGS[4]},
        )
        code, out, _ = run(
            capsys, "construct", "--name", "diagonal_lift",
            "--input", path, "--format", "json", "--check",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["n"], doc["r"]) == (10, 5)
        assert all(s[-1] == 10 for s in doc["sets"])

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "construct", "--name", "rho3", "--r", "5")
        assert code == EXIT_FAIL
        assert "--t is required" in err

    def test_out_of_range_parameters(self, capsys):
        code, _, err = run(
            capsys, "construct", "--name", "rho4", "--r", "10", "--t", "3",
        )
        assert code == EXIT_FAIL
        assert "rho4 witness needs" in err


class TestReproduce:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1")
        assert code == EXIT_OK
        assert "table 1: PASS" in out
        assert "MISMATCH" not in out

    def test_table2(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "2")
        assert code == EXIT_OK
        assert "table 2: PASS" in out
        assert "BOUND_CONSISTENT" in out

    def test_table3_json(self, capsys):
        code, out, _ = run(
            capsys, "reproduce", "--table", "3", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passing"] is True
        assert len(doc["rows"]) == 5

    def test_bad_table_number(self, capsys):
        assert run(capsys, "reproduce", "--table", "9")[0] == EXIT_USAGE
