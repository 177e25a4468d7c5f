"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import io
import json

import pytest

from kneserdom import TABLE3_PACKINGS, SolveResult
from kneserdom.cli import (
    CONSTRUCTIONS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    build_parser,
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
            "--n", "11", "--r", "5", "--timeout", "1e-9",
        )
        assert code == EXIT_TIMEOUT
        assert "status: bounds" in out

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

    def test_vertex_ceiling_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", "10")
        code, _, err = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "9", "--r", "2", "--k", "1",
        )
        assert code == EXIT_FAIL
        assert "exceeding the ceiling" in err

    @pytest.mark.parametrize("argv", [
        ["gamma_k", "--n", "7", "--r", "2", "--k", "2"],
        # K(7,3) goes to the clique search; K(8,3) has diameter 2 and
        # closes without enumerating, so it never reads the ceiling
        ["rho2", "--n", "7", "--r", "3"],
    ])
    @pytest.mark.parametrize("ceiling", ["0", "-5"])
    def test_vertex_ceiling_must_be_positive(self, capsys, monkeypatch, argv,
                                             ceiling):
        monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", ceiling)
        code, _, err = run(capsys, "compute", "--invariant", *argv)
        assert code == EXIT_FAIL
        assert "KNESERDOM_VERTEX_CEILING must be positive" in err

    def test_k_does_not_apply_to_rho2(self, capsys):
        code, out, err = run(
            capsys, "compute", "--invariant", "rho2",
            "--n", "7", "--r", "3", "--k", "5",
        )
        assert code == EXIT_FAIL
        assert out == ""
        assert "--k does not apply to rho2" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run(capsys, "compute", "--invariant", "bogus")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag", [["--threads", "2"], ["--seed", "1"], ["--attempt-open"],
                 ["--vertex-ceiling", "10"], ["--no-symmetry-breaking"]]
    )
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        code, _, _ = run(
            capsys, "compute", "--invariant", "gamma_k",
            "--n", "5", "--r", "2", "--k", "2", *flag,
        )
        assert code == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE


def test_option_inventory():
    # every option of every subcommand; a new flag changes this test too
    parser = build_parser()
    (subcommands,) = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    inventory = {
        name: {option for action in sub._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert inventory == {
        "compute": {"--invariant", "--n", "--r", "--k", "--timeout",
                    "--format"},
        "verify": {"--invariant", "--k", "--input", "--format"},
        "construct": {"--name", "--n", "--r", "--k", "--t", "--a", "--input",
                      "--check", "--format"},
        "reproduce": {"--table", "--format"},
    }


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
        # the invariant names are the InvariantKind values; rho2 is the only
        # name of the 2-packing number
        path = write_doc(
            tmp_path, "pack.json",
            {"n": 9, "r": 4, "sets": TABLE3_PACKINGS[4]},
        )
        code, _, _ = run(
            capsys, "verify", "--invariant", "two_packing", "--input", path,
        )
        assert code == EXIT_USAGE

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

    def test_k_does_not_apply_to_rho2(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "pack.json",
            {"n": 9, "r": 4, "sets": TABLE3_PACKINGS[4]},
        )
        code, out, err = run(
            capsys, "verify", "--invariant", "rho2", "--k", "5",
            "--input", path,
        )
        assert code == EXIT_FAIL
        assert out == ""
        assert "--k does not apply to rho2" in err

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

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        base = {"n": 9, "r": 4, "sets": TABLE3_PACKINGS[4]}
        argv = ["construct", "--name", "diagonal_lift", "--format", "json",
                "--check", "--input"]
        code, from_file, _ = run(capsys, *argv,
                                 write_doc(tmp_path, "base.json", base))
        assert code == EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(base)))
        code, from_stdin, err = run(capsys, *argv, "-")
        assert code == EXIT_OK, err
        assert from_stdin == from_file

    @pytest.mark.parametrize("argv", [
        ["disjoint_clique", "--k", "2", "--r", "2"],
        ["gamma_kt_boundary", "--k", "2", "--r", "3"],
        ["rho3", "--r", "3", "--t", "2"],
        ["rho4", "--r", "9", "--t", "3"],
        ["table3", "--r", "6"],
        ["doubling_lift", "--a", "2", "--input", "rho3"],
        ["diagonal_lift", "--input", "table3"],
        ["normalize", "--input", "rho4"],
    ])
    def test_check_passes_on_every_construction(self, capsys, tmp_path, argv):
        # the domination constructions are checked as such: their members
        # are disjoint, so as 2-packings they would fail
        inputs = {
            "rho3": ["rho3", "--r", "3", "--t", "2"],
            "rho4": ["rho4", "--r", "9", "--t", "3"],
            "table3": ["table3", "--r", "4"],
        }
        if "--input" in argv:
            code, doc, _ = run(capsys, "construct", "--format", "json",
                               "--name", *inputs[argv[-1]])
            assert code == EXIT_OK
            path = tmp_path / "input.json"
            path.write_text(doc)
            argv = argv[:-1] + [str(path)]
        code, _, err = run(capsys, "construct", "--check", "--name", *argv)
        assert code == EXIT_OK, err

    def test_empty_family_output(self, capsys, tmp_path):
        # the header, then the empty csv as one empty line
        path = write_doc(tmp_path, "empty.json", {"n": 9, "r": 4, "sets": []})
        argv = ["construct", "--name", "diagonal_lift", "--input", path]
        assert run(capsys, *argv) == (EXIT_OK, "K(10,5), 0 sets:\n\n", "")
        assert run(capsys, *argv, "--format", "csv") == (EXIT_OK, "\n", "")

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

    def test_table3_short_packing_fails(self, capsys, monkeypatch):
        # the expected size is the recorded one, not the data's own length
        monkeypatch.setitem(TABLE3_PACKINGS, 6, TABLE3_PACKINGS[6][:-1])
        code, out, _ = run(capsys, "reproduce", "--table", "3")
        assert code == EXIT_FAIL
        assert "table 3: FAIL" in out

    def test_bad_table_number(self, capsys):
        assert run(capsys, "reproduce", "--table", "9")[0] == EXIT_USAGE

    @pytest.mark.parametrize("flag", [["--timeout", "5"],
                                      ["--no-symmetry-breaking"]])
    def test_solver_flags_are_usage_errors(self, capsys, flag):
        code, _, _ = run(capsys, "reproduce", "--table", "1", *flag)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("table,solver,bracket,row", [
        (1, "solve_domination", SolveResult(3, 5), "gamma_xkt(K(4,2)), k=2"),
        (2, "solve_rho2", SolveResult(2, 5), "rho2(K(24,9))"),
    ])
    def test_bracket_matches_no_cell(self, capsys, monkeypatch, table, solver,
                                     bracket, row):
        # an open bracket has no value: not the undefined cell, not a number
        monkeypatch.setattr(f"kneserdom.cli.{solver}",
                            lambda *args: bracket)
        code, out, _ = run(capsys, "reproduce", "--table", str(table))
        assert code == EXIT_FAIL
        assert f"table {table}: FAIL" in out
        (line,) = [line for line in out.splitlines() if line.startswith(row)]
        assert line.endswith("MISMATCH")


# Options each construction takes, with values it accepts; an --input value
# names the construction whose JSON output is read.
CONSTRUCTION_ARGUMENTS = {
    "disjoint_clique": {"k": "2", "r": "2", "n": "9"},
    "gamma_kt_boundary": {"k": "2", "r": "3"},
    "rho3": {"r": "3", "t": "2"},
    "rho4": {"r": "9", "t": "3"},
    "table3": {"r": "6"},
    "doubling_lift": {"input": "rho3", "a": "2"},
    "diagonal_lift": {"input": "table3"},
    "normalize": {"input": "rho4"},
}


def _construct_options():
    """The options of `construct` that a construction may take."""
    parser = build_parser()
    (subcommands,) = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    return {option[2:] for action in subcommands.choices["construct"]._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--name", "--check", "--format")}


def test_every_construct_option_is_taken():
    taken = {option for row in CONSTRUCTIONS.values()
             for option in row.options + row.optional}
    assert _construct_options() == taken
    assert set(CONSTRUCTION_ARGUMENTS) == set(CONSTRUCTIONS)
    for name, row in CONSTRUCTIONS.items():
        assert set(CONSTRUCTION_ARGUMENTS[name]) == set(row.options + row.optional)


class TestConstructionOptions:
    @pytest.fixture
    def argv(self, capsys, tmp_path):
        """The argv of a construction from a dict of option values."""
        def build(name, values):
            argv = ["construct", "--name", name]
            for option, value in values.items():
                if option == "input":
                    code, doc, _ = run(
                        capsys, *build(value, CONSTRUCTION_ARGUMENTS[value]),
                        "--format", "json")
                    assert code == EXIT_OK
                    path = tmp_path / f"{value}.json"
                    path.write_text(doc)
                    value = str(path)
                argv += [f"--{option}", value]
            return argv
        return build

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_options_not_taken_are_errors(self, capsys, argv, name):
        values = CONSTRUCTION_ARGUMENTS[name]
        assert run(capsys, *argv(name, values))[0] == EXIT_OK
        for option in sorted(_construct_options() - set(values)):
            extra = {option: "rho3" if option == "input" else "3"}
            code, out, err = run(capsys, *argv(name, {**values, **extra}))
            assert code == EXIT_FAIL, option
            assert out == ""
            assert f"--{option} does not apply to {name}" in err

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_options_taken_are_required(self, capsys, argv, name):
        values = CONSTRUCTION_ARGUMENTS[name]
        for option in sorted(values):
            rest = {o: v for o, v in values.items() if o != option}
            code, out, err = run(capsys, *argv(name, rest), "--format", "json")
            if (name, option) == ("disjoint_clique", "n"):
                # n defaults to r(k+r)
                assert code == EXIT_OK
                assert (json.loads(out)["n"], json.loads(out)["r"]) == (8, 2)
                continue
            assert code == EXIT_FAIL, option
            assert out == ""
            assert f"--{option} is required for {name}" in err
