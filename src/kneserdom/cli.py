"""Command-line front end: compute, verify, construct, reproduce.

`CONSTRUCTIONS` is the one statement of what `construct --name` accepts:
the function each name calls, the options it takes, and the invariant
`--check` verifies its output as. An option that a construction does not
take, or `--k` for rho2, is an error rather than ignored.

Exit codes: 0 success / valid / expected-undefined, 1 invalid result,
mismatched row or error, 2 `compute` timeout (bounds only), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Any, NamedTuple

from . import construct as cons
from .certify import InvariantKind, VerificationReport, verify
from .core import (
    CapacityError,
    DefinabilityError,
    KneserParams,
    ParameterError,
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


class Construction(NamedTuple):
    """A `construct --name` row: `construct.<function>` is called with the
    values of `options`, then of `optional` (None when not given), in that
    order; `--input` is read as a family document. `--check` verifies the
    output as `check`, with `--k` for the domination kinds."""
    function: str
    options: tuple[str, ...]
    check: InvariantKind = InvariantKind.TWO_PACKING
    optional: tuple[str, ...] = ()


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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors get a distinct exit code
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")


def build_parser() -> _Parser:
    parser = _Parser(prog="kneserdom")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_compute = sub.add_parser("compute", help="compute an invariant exactly")
    p_compute.add_argument("--invariant", required=True,
                           choices=[kind.value for kind in InvariantKind])
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--r", type=int, required=True)
    p_compute.add_argument("--k", type=int, default=None)
    p_compute.add_argument("--timeout", type=float, default=60.0,
                           help="solver budget in seconds")
    _add_common(p_compute)

    p_verify = sub.add_parser("verify", help="check a family document")
    p_verify.add_argument("--invariant", required=True,
                          choices=[kind.value for kind in InvariantKind])
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--input", required=True,
                          help="path to a family document, or - for stdin")
    _add_common(p_verify)

    p_construct = sub.add_parser("construct", help="emit a recorded construction")
    p_construct.add_argument("--name", required=True,
                             choices=tuple(CONSTRUCTIONS))
    p_construct.add_argument("--n", type=int, default=None)
    p_construct.add_argument("--r", type=int, default=None)
    p_construct.add_argument("--k", type=int, default=None)
    p_construct.add_argument("--t", type=int, default=None)
    p_construct.add_argument("--a", type=int, default=None)
    p_construct.add_argument("--input", default=None,
                             help="input family document (lifts and normalize)")
    p_construct.add_argument("--check", action="store_true",
                             help="run the designated verifier on the output")
    _add_common(p_construct)

    p_reproduce = sub.add_parser("reproduce", help="recompute a recorded table")
    p_reproduce.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    _add_common(p_reproduce)

    return parser


def _emit(doc: dict, fmt: str, csv_rows: list[str],
          text_rows: list[str] | None = None) -> None:
    """Print `doc` as JSON, or the rows of the format; the text rows
    default to one "key: value" line per field of `doc`."""
    if fmt == "json":
        rows = [json.dumps(doc, indent=2)]
    elif fmt == "csv":
        rows = csv_rows
    else:
        rows = text_rows or [f"{key}: {value}" for key, value in doc.items()]
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


def _invariant_kind(args: argparse.Namespace) -> InvariantKind:
    """The invariant named by --invariant; every kind but rho2 needs --k,
    and rho2 takes none."""
    kind = InvariantKind(args.invariant)
    if kind is InvariantKind.TWO_PACKING and args.k is not None:
        raise ParameterError(f"--k does not apply to {args.invariant}")
    if kind is not InvariantKind.TWO_PACKING and args.k is None:
        raise ParameterError(f"--k is required for {args.invariant}")
    return kind


def cmd_compute(args: argparse.Namespace) -> int:
    cfg = SolverConfig(timeout=args.timeout)
    params = KneserParams(args.n, args.r)
    kind = _invariant_kind(args)
    if kind is InvariantKind.TWO_PACKING:
        result = solve_rho2(params, cfg)
    else:
        result = solve_domination(params, kind, args.k, cfg)
    doc = _result_document(args, result)
    csv_rows = []
    if result.witness is not None:
        csv_rows = [" ".join(map(str, v.elements)) for v in result.witness]
    _emit(doc, args.format, csv_rows)
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
    with (nullcontext(sys.stdin) if path == "-" else open(path)) as fh:
        family, _ = load_family_document(fh)
    return family


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify(_read_family(args.input), _invariant_kind(args),
                    args.k or 0)
    doc = _report_document(report)
    _emit(doc, args.format, [f"{doc['valid']}"])
    return EXIT_OK if report.valid else EXIT_FAIL


def cmd_construct(args: argparse.Namespace) -> int:
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

    csv = family_to_csv(family)  # one string, so an empty family prints ""
    _emit(family_to_document(family, {"construction": name}), args.format,
          [csv], [f"K({family.params.n},{family.params.r}), {len(family)} sets:",
                  csv])
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


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _table1_rows() if args.table == 1 else _packing_rows(args.table)
    passing = all(row["status"] != "MISMATCH" for row in rows)
    summary = f"table {args.table}: {'PASS' if passing else 'FAIL'}"
    _emit({"table": args.table, "passing": passing, "rows": rows}, args.format,
          [",".join(map(str, row.values())) for row in rows] + [summary],
          [f"{row['parameters']:32} expected {row['expected']!s:>10} "
           f"computed {row['computed']!s:>10}  {row['status']}"
           for row in rows] + [summary])
    return EXIT_OK if passing else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "construct": cmd_construct,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except FamilyDocumentError as exc:
        print(f"error: malformed family document: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ParameterError, DefinabilityError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
