"""Command-line front end: compute, verify, construct, reproduce.

`COMMANDS` is the one statement of each subcommand: its handler, its help
line and its options. `_parse` reads a call spelled with the rows' exact
flags straight from the rows; any other argv (`-h`, a usage error, an
abbreviated flag, a value that starts with a dash, "--") goes to an
argparse parser built from the same rows, so only those load `argparse`.

`CONSTRUCTIONS` is the one statement of what `construct --name` accepts:
the function each name calls, the options it takes, and the invariant
`--check` verifies its output as. An option that a construction does not
take, or `--k` for rho2, is an error rather than ignored.

Exit codes: 0 success / valid / expected-undefined, 1 invalid result,
mismatched row or error, 2 `compute` timeout (bounds only), 64 usage error.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Any, Callable

from . import construct as cons
from .certify import InvariantKind, VerificationReport, verify
from .core import (
    CapacityError,
    DefinabilityError,
    KneserParams,
    ParameterError,
    Record,
    VertexFamily,
)
from .familydoc import (
    FamilyDocumentError,
    family_to_csv,
    family_to_document,
    load_family_document,
)
from .solve import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    solve_domination,
    solve_rho2,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 64

# Expected cells of the k=2 invariant table for K(n,2); None marks the
# undefined k-tuple total cell, and the n>=8 row is spot-checked at 8 and 9.
TABLE1_EXPECTED: dict[int, tuple[int, int, int | None]] = {
    4: (6, 6, None),
    5: (4, 6, 8),
    6: (5, 6, 6),
    7: (5, 5, 5),
    8: (4, 4, 4),
    9: (4, 4, 4),
}

# 2-packing numbers of K(3r-3, r): recorded lower bounds for r <= 8, which
# are the sizes of the recorded packings, and exact values for r = 9 and
# r >= 10.
TABLE2_LOWER_BOUNDS = {4: 12, 5: 12, 6: 10, 7: 6, 8: 5}
TABLE2_EXACT = {9: 4, 10: 3}


class Construction(Record):
    """A `construct --name` row: `construct.<function>` is called with the
    values of `options`, then of `optional` (None when not given), in that
    order; `--input` is read as a family document. `--check` verifies the
    output as `check`, with `--k` for the domination kinds.

    The rows of `CONSTRUCTIONS` and `COMMANDS` are records, not NamedTuples,
    whose class creation compiles code at every import."""
    __slots__ = ("function", "options", "check", "optional")

    def __init__(self, function: str, options: tuple[str, ...],
                 check: InvariantKind = InvariantKind.TWO_PACKING,
                 optional: tuple[str, ...] = ()):
        self._set_fields(function, options, check, optional)


CONSTRUCTIONS: dict[str, Construction] = {
    "disjoint_clique": Construction("disjoint_clique", ("k", "r"),
                                    InvariantKind.K_TUPLE_TOTAL, ("n",)),
    "gamma_kt_boundary": Construction("gamma_kt_boundary", ("k", "r"),
                                      InvariantKind.K_TUPLE_TOTAL),
    "rho3": Construction("rho3_witness", ("r", "t")),
    "rho4": Construction("rho4_witness", ("r", "t")),
    "table3": Construction("table3_packing", ("r",)),
    "doubling_lift": Construction("doubling_lift", ("input", "a")),
    "diagonal_lift": Construction("diagonal_lift", ("input",)),
    "normalize": Construction("normalize_packing", ("input",)),
}


def _emit(fmt: str, doc: Callable[[], dict], csv_rows: Callable[[], list],
          text_rows: Callable[[], list] | None = None) -> None:
    """Print the output in the format `fmt`, building only that one: the
    document `doc()` as JSON, or the rows of the format; the text rows
    default to one "key: value" line per field of the document."""
    if fmt == "json":
        rows = [json.dumps(doc(), indent=2)]
    elif fmt == "csv":
        rows = csv_rows()
    elif text_rows:
        rows = text_rows()
    else:
        rows = [f"{key}: {value}" for key, value in doc().items()]
    for row in rows:
        print(row)


def _result_document(args, result: SolveResult) -> dict:
    doc: dict[str, Any] = {
        "invariant": args.invariant,
        "n": args.n,
        "r": args.r,
    }
    if args.invariant != "rho2":
        doc["k"] = args.k
    doc.update(
        value=result.value,
        status=result.status.value,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        nodes=result.nodes,
        wall_time=round(result.wall_time, 3),
    )
    if result.witness is not None:
        doc["witness"] = result.witness.as_sets()
    return doc


def _invariant_kind(args: SimpleNamespace) -> InvariantKind:
    """The invariant named by --invariant; every kind but rho2 needs --k,
    and rho2 takes none."""
    kind = InvariantKind(args.invariant)
    if kind is InvariantKind.TWO_PACKING and args.k is not None:
        raise ParameterError(f"--k does not apply to {args.invariant}")
    if kind is not InvariantKind.TWO_PACKING and args.k is None:
        raise ParameterError(f"--k is required for {args.invariant}")
    return kind


def cmd_compute(args: SimpleNamespace) -> int:
    cfg = SolverConfig(timeout=args.timeout)
    params = KneserParams(args.n, args.r)
    kind = _invariant_kind(args)
    if kind is InvariantKind.TWO_PACKING:
        result = solve_rho2(params, cfg)
    else:
        result = solve_domination(params, kind, args.k, cfg)
    witness = result.witness
    _emit(args.format, lambda: _result_document(args, result),
          lambda: [] if witness is None else [family_to_csv(witness)])
    if result.status in (SolveStatus.OPTIMAL, SolveStatus.UNDEFINED):
        return EXIT_OK
    return EXIT_TIMEOUT


def _report_document(report: VerificationReport) -> dict:
    doc: dict[str, Any] = {
        "valid": report.valid,
        "invariant": report.kind.value,
        "k": report.k,
        "checked_count": report.checked_count,
    }
    violation = report.witness_violation
    if violation is not None:
        if isinstance(violation, tuple):
            doc["violation"] = [list(v.elements) for v in violation]
        else:
            doc["violation"] = list(violation.elements)
    return doc


def _read_family(path: str) -> VertexFamily:
    """The family of the document at `path`; "-" reads it from stdin."""
    with (nullcontext(sys.stdin) if path == "-"
          else open(path, encoding="utf-8")) as fh:
        family, _ = load_family_document(fh)
    return family


def cmd_verify(args: SimpleNamespace) -> int:
    report = verify(_read_family(args.input), _invariant_kind(args),
                    args.k or 0)
    _emit(args.format, lambda: _report_document(report),
          lambda: [f"{report.valid}"])
    return EXIT_OK if report.valid else EXIT_FAIL


def cmd_construct(args: SimpleNamespace) -> int:
    name = args.name
    row = CONSTRUCTIONS[name]
    taken = row.options + row.optional
    # checked in this order, which names the first of two missing options
    for option in ("k", "r", "t", "a", "input", "n"):
        value = getattr(args, option)
        if value is not None and option not in taken:
            raise ParameterError(f"--{option} does not apply to {name}")
        if value is None and option in row.options:
            raise ParameterError(f"--{option} is required for {name}")
    family = getattr(cons, row.function)(*(
        _read_family(args.input) if option == "input" else getattr(args, option)
        for option in taken))

    if args.check:
        report = verify(family, row.check, args.k or 0)
        if not report.valid:
            print("construction failed its designated verifier", file=sys.stderr)
            return EXIT_FAIL

    # the csv is one string, so an empty family prints ""
    _emit(args.format,
          lambda: family_to_document(family, {"construction": name}),
          lambda: [family_to_csv(family)],
          lambda: [f"K({family.params.n},{family.params.r}), "
                   f"{len(family)} sets:", family_to_csv(family)])
    return EXIT_OK


def _row(parameters: str, expected, computed, ok: bool,
         status: str = "MATCH") -> dict:
    """A reproduce row; `status` when `ok`, else MISMATCH."""
    return {"parameters": parameters, "expected": expected,
            "computed": computed, "status": status if ok else "MISMATCH"}


def _table1_rows() -> list[dict]:
    rows = []
    for n, expected_cells in sorted(TABLE1_EXPECTED.items()):
        for label, cell in zip(("gamma_k", "gamma_xk", "gamma_xkt"),
                               expected_cells):
            kind = InvariantKind(label)
            result = solve_domination(KneserParams(n, 2), kind, 2)
            # an open bracket has value None, which matches no cell
            computed = ("undefined" if result.status is SolveStatus.UNDEFINED
                        else result.value)
            expected = "undefined" if cell is None else cell
            rows.append(_row(f"{label}(K({n},2)), k=2", expected, computed,
                             computed == expected))
    return rows


def _packing_rows(table: int) -> list[dict]:
    """Tables 2 and 3: each recorded packing checked against its recorded
    size, as a lower bound on rho2 (Table 2) or as the size itself (Table 3);
    Table 2 then solves the exact rows."""
    rows = []
    for r, size in sorted(TABLE2_LOWER_BOUNDS.items()):
        family = cons.table3_packing(r)
        valid = verify(family, InvariantKind.TWO_PACKING).valid
        graph, found = f"K({3 * r - 3},{r})", len(family)
        if table == 2:
            rows.append(_row(f"rho2({graph})", f">= {size}",
                             f"witness of {found}" if valid else "invalid",
                             valid and found >= size, "BOUND_CONSISTENT"))
        else:
            rows.append(_row(f"2-packing of {graph}", f"{size} sets, valid",
                             f"{found} sets, {'valid' if valid else 'invalid'}",
                             valid and found == size))
    if table == 2:
        for r, expected in sorted(TABLE2_EXACT.items()):
            n = 3 * r - 3
            computed = solve_rho2(KneserParams(n, r)).value
            rows.append(_row(f"rho2(K({n},{r}))", f"= {expected}", computed,
                             computed == expected))
    return rows


def cmd_reproduce(args: SimpleNamespace) -> int:
    rows = _table1_rows() if args.table == 1 else _packing_rows(args.table)
    passing = all(row["status"] != "MISMATCH" for row in rows)
    summary = f"table {args.table}: {'PASS' if passing else 'FAIL'}"
    _emit(args.format,
          lambda: {"table": args.table, "passing": passing, "rows": rows},
          lambda: [",".join(map(str, row.values())) for row in rows]
          + [summary],
          lambda: [f"{row['parameters']:32} expected {row['expected']!s:>10} "
                   f"computed {row['computed']!s:>10}  {row['status']}"
                   for row in rows] + [summary])
    return EXIT_OK if passing else EXIT_FAIL


_KINDS = tuple(kind.value for kind in InvariantKind)
_FORMAT = ("--format", {"choices": ("text", "json", "csv"), "default": "text"})


class Command(Record):
    """A subcommand: the handler `main` calls with its parsed options, its
    help line, and its options, each a flag and the keyword arguments of
    its `add_argument`: "type", "required", "default", "choices", "help",
    and "action" for the one flag that takes no value. `_parse` reads these
    keys itself for argv made of the exact flags; `_argparse` passes them
    to argparse."""
    __slots__ = ("handler", "help", "options")

    def __init__(self, handler: Callable[[SimpleNamespace], int],
                 help: str, options: tuple[tuple[str, dict[str, Any]], ...]):
        self._set_fields(handler, help, options)


COMMANDS: dict[str, Command] = {
    "compute": Command(cmd_compute, "compute an invariant exactly", (
        ("--invariant", {"required": True, "choices": _KINDS}),
        ("--n", {"type": int, "required": True}),
        ("--r", {"type": int, "required": True}),
        ("--k", {"type": int, "default": None}),
        ("--timeout", {"type": float, "default": 60.0,
                       "help": "solver budget in seconds"}),
        _FORMAT,
    )),
    "verify": Command(cmd_verify, "check a family document", (
        ("--invariant", {"required": True, "choices": _KINDS}),
        ("--k", {"type": int, "default": None}),
        ("--input", {"required": True,
                     "help": "path to a family document, or - for stdin"}),
        _FORMAT,
    )),
    "construct": Command(cmd_construct, "emit a recorded construction", (
        ("--name", {"required": True, "choices": tuple(CONSTRUCTIONS)}),
        *((f"--{option}", {"type": int, "default": None})
          for option in ("n", "r", "k", "t", "a")),
        ("--input", {"default": None,
                     "help": "input family document (lifts and normalize)"}),
        ("--check", {"action": "store_true",
                     "help": "run the designated verifier on the output"}),
        _FORMAT,
    )),
    "reproduce": Command(cmd_reproduce, "recompute a recorded table", (
        ("--table", {"type": int, "required": True, "choices": (1, 2, 3)}),
        _FORMAT,
    )),
}


# The top level's one row: the positional that names the subcommand.
_TOP = (("command", {"choices": tuple(COMMANDS),
                     "help": "the subcommand; `kneserdom <command> -h` "
                             "lists its options"}),)


def _parse(prog: str, rows, argv: list[str]):
    """`argv` parsed by the rows `rows` when it is made of their exact
    flags, each with its value after "=" or in the next string, a value
    that starts with a dash being only "-"; `--check` takes none. The
    values convert by the row's type, fall in its choices, and leave no
    required row out. Any other argv is parsed by `_argparse`, which gives
    the help, the usage errors and the odd spellings."""
    specs = dict(rows)
    values = {flag.lstrip("-"):
              spec.get("default", False if "action" in spec else None)
              for flag, spec in rows}
    i = 0
    while i < len(argv):
        flag, eq, text = argv[i].partition("=")
        spec = specs.get(flag)
        i += 1
        if spec is None or eq and "action" in spec:
            break
        if "action" in spec:
            value = True
        else:
            if not eq:
                if i == len(argv):
                    break
                text, i = argv[i], i + 1
            if text[:1] == "-" and text != "-":
                break
            try:
                value = spec.get("type", str)(text)
            except ValueError:
                break
            choices = spec.get("choices")
            if choices is not None and value not in choices:
                break
        values[flag.lstrip("-")] = value
    else:  # no parsed value is None, so a required None was not given
        if all(values[flag.lstrip("-")] is not None
               for flag, spec in rows if spec.get("required")):
            return SimpleNamespace(**values)
    return _argparse(prog, rows, argv)


def _argparse(prog: str, rows, argv: list[str]):
    """`argv` parsed by an argparse parser built from `rows`, which prints
    the help (exit 0) and the usage errors (exit 64). `_TOP` builds the top
    level's parser, whose help lists the subcommands; an argv it parses,
    a name after "--", is an error, as the subcommand must come first.
    argparse reads `--opt=--` as an empty list, which is an error here."""
    import argparse
    top = rows is _TOP
    parser = argparse.ArgumentParser(
        prog=prog, formatter_class=argparse.RawDescriptionHelpFormatter,
        usage=("%(prog)s [-h] {" + ",".join(COMMANDS) + "} ..."
               if top else None),
        epilog="subcommands:\n" + "\n".join(
            f"  {name:12}{row.help}" for name, row in COMMANDS.items())
        if top else None)
    for flag, spec in rows:
        parser.add_argument(flag, **spec)
    try:
        args = parser.parse_args(argv)
        for flag, _ in rows:
            if getattr(args, flag.lstrip("-")) == []:
                parser.error(f"argument {flag}: expected one argument")
        if top:
            parser.error("the subcommand must come first")
    except SystemExit as exc:  # usage errors get a distinct exit code
        sys.exit(EXIT_USAGE if exc.code == 2 else exc.code)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand that `argv` (default `sys.argv[1:]`) names first,
    with the rest parsed by its rows in `COMMANDS`. When `argv` names no
    subcommand first, the top level prints the help or a usage error."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv else None
    if command not in COMMANDS:
        _argparse("kneserdom", _TOP, argv)  # exits
    args = _parse(f"kneserdom {command}", COMMANDS[command].options, argv[1:])
    try:
        return COMMANDS[command].handler(args)
    except FamilyDocumentError as exc:
        print(f"error: malformed family document: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ParameterError, DefinabilityError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
