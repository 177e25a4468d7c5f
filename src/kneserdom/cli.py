"""Command-line front end: compute, verify, construct, reproduce.

Exit codes: 0 success / valid / expected-undefined, 1 invalid result or
error, 2 timeout (bounds only), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import construct as cons
from .certify import InvariantKind, VerificationReport, verify
from .core import (
    CapacityError,
    DefinabilityError,
    KneserParams,
    ParameterError,
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

INVARIANT_NAMES = {
    "gamma_k": InvariantKind.K_DOMINATION,
    "gamma_xk": InvariantKind.K_TUPLE,
    "gamma_xkt": InvariantKind.K_TUPLE_TOTAL,
    "rho2": InvariantKind.TWO_PACKING,
    "two_packing": InvariantKind.TWO_PACKING,
}

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

# 2-packing numbers of K(3r-3, r): recorded lower bounds for r <= 8,
# exact values for r = 9 and r >= 10.
TABLE2_LOWER_BOUNDS = {4: 12, 5: 12, 6: 10, 7: 6, 8: 5}
TABLE2_EXACT = {9: 4, 10: 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors get a distinct exit code
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="solver budget in seconds")
    parser.add_argument("--no-symmetry-breaking", action="store_true")
    parser.add_argument("--vertex-ceiling", type=int, default=None,
                        help="override the enumeration vertex ceiling")


def build_parser() -> _Parser:
    parser = _Parser(prog="kneserdom")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_compute = sub.add_parser("compute", help="compute an invariant exactly")
    p_compute.add_argument("--invariant", required=True,
                           choices=("gamma_k", "gamma_xk", "gamma_xkt", "rho2"))
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--r", type=int, required=True)
    p_compute.add_argument("--k", type=int, default=None)
    _add_solver_flags(p_compute)
    _add_common(p_compute)

    p_verify = sub.add_parser("verify", help="check a family document")
    p_verify.add_argument("--invariant", required=True,
                          choices=tuple(INVARIANT_NAMES))
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--input", required=True,
                          help="path to a family document, or - for stdin")
    _add_common(p_verify)

    p_construct = sub.add_parser("construct", help="emit a recorded construction")
    p_construct.add_argument("--name", required=True,
                             choices=("disjoint_clique", "gamma_kt_boundary",
                                      "rho3", "rho4", "table3",
                                      "doubling_lift", "diagonal_lift",
                                      "normalize"))
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
    _add_solver_flags(p_reproduce)
    _add_common(p_reproduce)

    return parser


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        timeout=args.timeout,
        symmetry_breaking=not args.no_symmetry_breaking,
        vertex_ceiling=args.vertex_ceiling,
    )


def _emit(doc: dict, fmt: str, csv_rows: list[str] | None = None) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        for row in csv_rows or []:
            print(row)
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


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


def cmd_compute(args: argparse.Namespace) -> int:
    kind = INVARIANT_NAMES[args.invariant]
    cfg = _solver_config(args)
    params = KneserParams(args.n, args.r)
    if kind is InvariantKind.TWO_PACKING:
        result = solve_rho2(params, cfg)
    else:
        if args.k is None:
            raise ParameterError(f"--k is required for {args.invariant}")
        result = solve_domination(params, kind, args.k, cfg)
    doc = _result_document(args, result)
    csv_rows = None
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


def cmd_verify(args: argparse.Namespace) -> int:
    kind = INVARIANT_NAMES[args.invariant]
    if kind is not InvariantKind.TWO_PACKING and args.k is None:
        raise ParameterError(f"--k is required for {args.invariant}")
    if args.input == "-":
        family, _ = load_family_document(sys.stdin)
    else:
        with open(args.input) as fh:
            family, _ = load_family_document(fh)
    report = verify(family, kind, args.k or 0)
    doc = _report_document(report)
    _emit(doc, args.format, [f"{doc['valid']}"])
    return EXIT_OK if report.valid else EXIT_FAIL


def _require(args, *names: str) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ParameterError(f"--{name} is required for {args.name}")
        values.append(value)
    return values


def _load_input_family(args):
    if args.input is None:
        raise ParameterError(f"--input is required for {args.name}")
    with open(args.input) as fh:
        family, _ = load_family_document(fh)
    return family


def cmd_construct(args: argparse.Namespace) -> int:
    name = args.name
    if name == "disjoint_clique":
        k, r = _require(args, "k", "r")
        n = args.n if args.n is not None else r * (k + r)
        family = cons.disjoint_clique(k, r, n)
        check_kind, check_k = InvariantKind.K_TUPLE_TOTAL, k
    elif name == "gamma_kt_boundary":
        k, r = _require(args, "k", "r")
        family = cons.gamma_kt_boundary(k, r)
        check_kind, check_k = InvariantKind.K_TUPLE_TOTAL, k
    elif name == "rho3":
        r, t = _require(args, "r", "t")
        family = cons.rho3_witness(r, t)
        check_kind, check_k = InvariantKind.TWO_PACKING, 0
    elif name == "rho4":
        r, t = _require(args, "r", "t")
        family = cons.rho4_witness(r, t)
        check_kind, check_k = InvariantKind.TWO_PACKING, 0
    elif name == "table3":
        (r,) = _require(args, "r")
        family = cons.table3_packing(r)
        check_kind, check_k = InvariantKind.TWO_PACKING, 0
    elif name == "doubling_lift":
        (a,) = _require(args, "a")
        family = cons.doubling_lift(_load_input_family(args), a)
        check_kind, check_k = InvariantKind.TWO_PACKING, 0
    elif name == "diagonal_lift":
        family = cons.diagonal_lift(_load_input_family(args))
        check_kind, check_k = InvariantKind.TWO_PACKING, 0
    else:  # normalize
        family = cons.normalize_packing(_load_input_family(args))
        check_kind, check_k = InvariantKind.TWO_PACKING, 0

    if args.check:
        report = verify(family, check_kind, check_k)
        if not report.valid:
            print("construction failed its designated verifier", file=sys.stderr)
            return EXIT_FAIL

    meta = {"construction": name}
    doc = family_to_document(family, meta)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print(family_to_csv(family))
    else:
        print(f"K({family.params.n},{family.params.r}), {len(family)} sets:")
        print(family_to_csv(family))
    return EXIT_OK


def _run_table1(cfg: SolverConfig) -> list[dict]:
    rows = []
    for n, expected_cells in sorted(TABLE1_EXPECTED.items()):
        for label, expected in zip(("gamma_k", "gamma_xk", "gamma_xkt"),
                                   expected_cells):
            kind = INVARIANT_NAMES[label]
            result = solve_domination(KneserParams(n, 2), kind, 2, cfg)
            computed: int | str | None = result.value  # None when undefined
            if result.status is SolveStatus.BOUNDS:
                computed, status = "timeout", "SKIPPED_TIMEOUT"
            else:
                status = "MATCH" if computed == expected else "MISMATCH"
            rows.append({
                "parameters": f"{label}(K({n},2)), k=2",
                "expected": "undefined" if expected is None else expected,
                "computed": "undefined" if computed is None else computed,
                "status": status,
            })
    return rows


def _run_table2(cfg: SolverConfig) -> list[dict]:
    rows = []
    for r, bound in sorted(TABLE2_LOWER_BOUNDS.items()):
        family = cons.table3_packing(r)
        report = verify(family, InvariantKind.TWO_PACKING)
        ok = report.valid and len(family) >= bound
        rows.append({
            "parameters": f"rho2(K({3 * r - 3},{r}))",
            "expected": f">= {bound}",
            "computed": f"witness of {len(family)}" if report.valid else "invalid",
            "status": "BOUND_CONSISTENT" if ok else "MISMATCH",
        })
    for r, expected in sorted(TABLE2_EXACT.items()):
        n = 3 * r - 3
        try:
            result = solve_rho2(KneserParams(n, r), cfg)
        except CapacityError:
            result = None
        if result is None or result.status is not SolveStatus.OPTIMAL:
            status, computed = "SKIPPED_TIMEOUT", "timeout"
        else:
            computed = result.value
            status = "MATCH" if computed == expected else "MISMATCH"
        rows.append({
            "parameters": f"rho2(K({n},{r}))",
            "expected": f"= {expected}",
            "computed": computed,
            "status": status,
        })
    return rows


def _run_table3() -> list[dict]:
    rows = []
    for r in sorted(cons.TABLE3_PACKINGS):
        family = cons.table3_packing(r)
        report = verify(family, InvariantKind.TWO_PACKING)
        rows.append({
            "parameters": f"2-packing of K({3 * r - 3},{r})",
            "expected": f"{len(cons.TABLE3_PACKINGS[r])} sets, valid",
            "computed": f"{len(family)} sets, "
                        + ("valid" if report.valid else "invalid"),
            "status": "MATCH" if report.valid else "MISMATCH",
        })
    return rows


def cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    if args.table == 1:
        rows = _run_table1(cfg)
    elif args.table == 2:
        rows = _run_table2(cfg)
    else:
        rows = _run_table3()
    passing = all(row["status"] != "MISMATCH" for row in rows)
    doc = {"table": args.table, "passing": passing, "rows": rows}
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for row in rows:
            line = (f"{row['parameters']:32} expected {row['expected']!s:>10} "
                    f"computed {row['computed']!s:>10}  {row['status']}")
            if args.format == "csv":
                line = ",".join(str(row[key]) for key in
                                ("parameters", "expected", "computed", "status"))
            print(line)
        print(f"table {args.table}: {'PASS' if passing else 'FAIL'}")
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
