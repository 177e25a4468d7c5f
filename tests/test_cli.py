"""End-to-end tests of the command-line interface (in-process)."""

import io
import json

import pytest

from kneserdom import TABLE3_PACKINGS, SolveResult, cli
from kneserdom.cli import (
    COMMANDS,
    CONSTRUCTIONS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
)
from kneserdom.familydoc import MAX_DOCUMENT_MASK_BITS, MAX_DOCUMENT_N


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h and usage errors
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

    def test_rho2_perfect_matching(self, capsys):
        # K(14,7) has 3,432 vertices joined in pairs; it closes at half of
        # them without a search
        code, out, _ = run(
            capsys, "compute", "--invariant", "rho2",
            "--n", "14", "--r", "7", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["value"], doc["nodes"]) == (1716, 0)

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

    @pytest.mark.parametrize("argv,ceiling", [
        (["gamma_k", "--n", "9", "--r", "2", "--k", "1"], "10"),
        # vertex counts and degrees of thousands of digits: the ceiling and
        # definability are settled by a bounded binomial, so neither count
        # is built or printed
        (["rho2", "--n", "20001", "--r", "10000"], None),
        (["gamma_k", "--n", "1000000", "--r", "300000", "--k", "2"], None),
        (["gamma_k", "--n", "4000", "--r", "1000", "--k", "2"], None),
    ])
    def test_vertex_ceiling_flag(self, capsys, monkeypatch, argv, ceiling):
        if ceiling is None:
            monkeypatch.delenv("KNESERDOM_VERTEX_CEILING", raising=False)
        else:
            monkeypatch.setenv("KNESERDOM_VERTEX_CEILING", ceiling)
        code, out, err = run(capsys, "compute", "--invariant", *argv)
        assert code == EXIT_FAIL
        assert out == ""
        n, r = argv[2], argv[4]
        assert err == (f"error: K({n},{r}) has C({n},{r}) vertices, exceeding "
                       f"the ceiling of {ceiling or 5000000}\n")

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


def _options(command):
    """The options of `command`, from its rows; -h and --help are not
    rows."""
    return {flag for flag, _ in COMMANDS[command].options}


def test_option_inventory():
    # every option of every subcommand; a new flag changes this test too
    assert {name: _options(name) for name in COMMANDS} == {
        "compute": {"--invariant", "--n", "--r", "--k", "--timeout",
                    "--format"},
        "verify": {"--invariant", "--k", "--input", "--format"},
        "construct": {"--name", "--n", "--r", "--k", "--t", "--a", "--input",
                      "--check", "--format"},
        "reproduce": {"--table", "--format"},
    }


class TestParsers:
    def test_top_level_help_lists_subcommands(self, capsys):
        code, out, err = run(capsys, "-h")
        assert (code, err) == (EXIT_OK, "")
        for name, row in COMMANDS.items():
            (line,) = [line for line in out.splitlines()
                       if line.split()[:1] == [name]]
            assert line.split(None, 1)[1] == row.help

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_help(self, capsys, command):
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"usage: kneserdom {command} [-h]")
        assert _options(command) <= set(out.replace("[", " ").split())

    @pytest.mark.parametrize("argv", [
        ["bogus"], ["comp", "--n", "5"], ["--format", "json", "compute"],
        ["--", "compute"], ["--invariant", "rho2"],
    ])
    def test_subcommand_must_come_first(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: kneserdom [-h]")

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", [
            "kneserdom", "compute", "--invariant", "gamma_k",
            "--n", "5", "--r", "2", "--k", "1"])
        assert main(None) == EXIT_OK
        assert "value: 3" in capsys.readouterr().out


COMPUTE_HELP = """\
usage: kneserdom compute [-h] --invariant {gamma_k,gamma_xk,gamma_xkt,rho2}
                         --n N --r R [--k K] [--timeout TIMEOUT]
                         [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --invariant {gamma_k,gamma_xk,gamma_xkt,rho2}
  --n N
  --r R
  --k K
  --timeout TIMEOUT     solver budget in seconds
  --format {text,json,csv}
"""

VERIFY_HELP = """\
usage: kneserdom verify [-h] --invariant {gamma_k,gamma_xk,gamma_xkt,rho2}
                        [--k K] --input INPUT [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --invariant {gamma_k,gamma_xk,gamma_xkt,rho2}
  --k K
  --input INPUT         path to a family document, or - for stdin
  --format {text,json,csv}
"""

CONSTRUCT_HELP = """\
usage: kneserdom construct [-h] --name
                           {disjoint_clique,gamma_kt_boundary,rho3,rho4,\
table3,doubling_lift,diagonal_lift,normalize}
                           [--n N] [--r R] [--k K] [--t T] [--a A]
                           [--input INPUT] [--check]
                           [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --name {disjoint_clique,gamma_kt_boundary,rho3,rho4,table3,doubling_lift,\
diagonal_lift,normalize}
  --n N
  --r R
  --k K
  --t T
  --a A
  --input INPUT         input family document (lifts and normalize)
  --check               run the designated verifier on the output
  --format {text,json,csv}
"""

REPRODUCE_HELP = """\
usage: kneserdom reproduce [-h] --table {1,2,3} [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --table {1,2,3}
  --format {text,json,csv}
"""

TOP_HELP = """\
usage: kneserdom [-h] {compute,verify,construct,reproduce} ...

positional arguments:
  {compute,verify,construct,reproduce}
                        the subcommand; `kneserdom <command> -h` lists its
                        options

options:
  -h, --help            show this help message and exit

subcommands:
  compute     compute an invariant exactly
  verify      check a family document
  construct   emit a recorded construction
  reproduce   recompute a recorded table
"""

TABLE3_CSV = "".join(
    f"2-packing of K({3 * r - 3},{r}),{size} sets, valid,{size} sets, valid,"
    f"MATCH\n" for r, size in [(4, 12), (5, 12), (6, 10), (7, 6), (8, 5)])


# argv, then the exit code, stdout and last stderr line that argparse gave,
# at 80 columns
PARITY = [
    ("compute --invariant=gamma_k --n=5 --r=2 --k=1 --format=csv",
     0, "1 2\n1 3\n2 3\n", ""),
    ("compute --inv gamma_k --n 5 --r 2 --k 1 --for csv",
     0, "1 2\n1 3\n2 3\n", ""),
    ("verify --i rho2 --input x.json", 64, "",
     "kneserdom verify: error: ambiguous option: --i could match "
     "--invariant, --input"),
    ("construct --n 9 --na disjoint_clique --k 2 --r 2 --format csv",
     0, "1 2\n3 4\n5 6\n7 8\n", ""),
    ("compute --invariant rho2 --r 3 --n", 64, "",
     "kneserdom compute: error: argument --n: expected one argument"),
    ("compute --invariant rho2 --n 7 --r 3 --bogus 1", 64, "",
     "kneserdom compute: error: unrecognized arguments: --bogus 1"),
    ("reproduce --table 3 extra", 64, "",
     "kneserdom reproduce: error: unrecognized arguments: extra"),
    ("compute --invariant rho2 --n x --r 3", 64, "",
     "kneserdom compute: error: argument --n: invalid int value: 'x'"),
    ("compute --invariant rho2 --n 7 --r 3 --timeout soon", 64, "",
     "kneserdom compute: error: argument --timeout: invalid float value: "
     "'soon'"),
    ("compute --invariant rho2 --n 7 --r 3 --format xml", 64, "",
     "kneserdom compute: error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json', 'csv')"),
    ("reproduce --table 9", 64, "",
     "kneserdom reproduce: error: argument --table: invalid choice: 9 "
     "(choose from 1, 2, 3)"),
    ("compute --invariant rho2", 64, "",
     "kneserdom compute: error: the following arguments are required: "
     "--n, --r"),
    ("compute --invariant rho2 --n 8 --r 3 --format json --format csv",
     0, "1 2 3\n", ""),
    ("compute --invariant gamma_k --n 5 --r 2 --k -1", 1, "",
     "error: k must be a positive integer, got -1"),
    ("construct --name table3 --r 4 --check=1", 64, "",
     "kneserdom construct: error: argument --check: ignored explicit "
     "argument '1'"),
    ("construct --name table3 --r 4 --check --format csv", 0,
     "".join(" ".join(map(str, s)) + "\n" for s in TABLE3_PACKINGS[4]), ""),
    ("reproduce --table=3 --format=csv", 0,
     TABLE3_CSV + "table 3: PASS\n", ""),
    ("compute -- --invariant rho2", 64, "",
     "kneserdom compute: error: the following arguments are required: "
     "--invariant, --n, --r"),
    ("compute -hx", 64, "",
     "kneserdom compute: error: argument -h/--help: ignored explicit "
     "argument 'x'"),
    ("", 64, "",
     "kneserdom: error: the following arguments are required: command"),
    ("bogus", 64, "",
     "kneserdom: error: argument command: invalid choice: 'bogus' (choose "
     "from 'compute', 'verify', 'construct', 'reproduce')"),
    ("-- compute", 64, "", "kneserdom: error: the subcommand must come first"),
    ("-h", 0, TOP_HELP, ""),
    ("compute -h", 0, COMPUTE_HELP, ""),
    ("verify -h", 0, VERIFY_HELP, ""),
    ("construct -h", 0, CONSTRUCT_HELP, ""),
    ("reproduce -h", 0, REPRODUCE_HELP, ""),
]


@pytest.mark.parametrize("argv,code,out,last", PARITY,
                         ids=[case[0] or "(empty)" for case in PARITY])
def test_argparse_parity(capsys, monkeypatch, argv, code, out, last):
    monkeypatch.setenv("COLUMNS", "80")
    got_code, got_out, err = run(capsys, *argv.split())
    assert (got_code, got_out) == (code, out)
    assert (err.splitlines() or [""])[-1] == last
    if code == EXIT_USAGE:
        assert err.startswith("usage: kneserdom")


@pytest.mark.parametrize("argv,flag", [
    ("reproduce --table=--", "--table"),
    ("compute --invariant=-- --n 5 --r 2 --k 1", "--invariant"),
    ("compute --invariant rho2 --n 7 --r 3 --format=--", "--format"),
])
def test_double_dash_value_is_a_usage_error(capsys, argv, flag):
    # argparse reads --opt=-- as an empty list, which reached the handlers
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == (f"kneserdom {argv.split()[0]}: error: "
                                    f"argument {flag}: expected one argument")


@pytest.mark.parametrize("argv", [
    "--inv rho2 --n 8 --r 3", "--invariant rho2 --n 8 --r 3 --k -1",
    "--invariant rho2 --n=-8 --r 3", "-- --invariant rho2 --n 8 --r 3",
    "--invariant rho2 --n 8 --r 3 -h", "--invariant rho2 --n 8",
    "--invariant rho2 --n 8 --r x",
])
def test_other_spellings_are_handed_to_argparse(monkeypatch, argv):
    rows, words = COMMANDS["compute"].options, argv.split()
    handed = []
    monkeypatch.setattr(cli, "_argparse",
                        lambda *call: handed.append(call) or "parsed")
    assert cli._parse("kneserdom compute", rows, words) == "parsed"
    assert handed == [("kneserdom compute", rows, words)]


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

    @pytest.mark.parametrize("content,reason", [
        (b"\xff\xfe{}", "not UTF-8 text (invalid start byte)"),
        (b"[" * 100_000, "JSON nested too deeply"),
    ], ids=["utf16-bom", "deep-nesting"])
    def test_undecodable_document_message(self, capsys, tmp_path, content,
                                          reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(
            capsys, "verify", "--invariant", "rho2", "--input", str(path),
        )
        assert code == EXIT_FAIL
        assert out == ""
        assert err == f"error: malformed family document: {reason}\n"
        assert "Traceback" not in err

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

    def test_huge_n_rejected_before_any_mask(self, capsys, monkeypatch):
        # an element near 10^18 would need a mask of 10^18 bits
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"n": 10**18, "r": 1, "sets": [[10**18]]})))
        code, out, err = run(capsys, "verify", "--invariant", "rho2",
                             "--input", "-")
        assert code == EXIT_FAIL
        assert out == ""
        assert err == (
            f"error: malformed family document: n = {10**18} exceeds the "
            f"largest supported n, {MAX_DOCUMENT_N}\n")

    def test_wide_masks_rejected_before_any_mask(self, capsys, monkeypatch):
        # each mask is as wide as its member's largest element: 2,000
        # members near 10^7 would need about 2.5 GB of masks
        n = MAX_DOCUMENT_N
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"n": n, "r": 1, "sets": [[n - i] for i in range(2000)]})))
        code, out, err = run(capsys, "verify", "--invariant", "rho2",
                             "--input", "-")
        assert code == EXIT_FAIL
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: malformed family document: sets[100]:")
        assert f"exceed {MAX_DOCUMENT_MASK_BITS} bits" in line


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_nonpositive_k_message(command, capsys, tmp_path):
    """compute and verify reject k = 0 with the one message of the rule."""
    path = write_doc(tmp_path, "dom.json", {"n": 5, "r": 2, "sets": [[1, 2]]})
    where = (["--input", path] if command == "verify"
             else ["--n", "5", "--r", "2"])
    code, out, err = run(capsys, command, "--invariant", "gamma_k",
                         "--k", "0", *where)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: k must be a positive integer, got 0\n"


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
    return {option[2:] for option in _options("construct")
            if option not in ("--name", "--check", "--format")}


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
