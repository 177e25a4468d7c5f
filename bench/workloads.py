"""The benchmark's workloads: argv lists, family documents and output checks.

Every call is one invocation of ``kneserdom.cli.main(argv)``. The checks in
this file use only the standard library, never ``kneserdom``: a witness is
re-verified here by brute force over the vertices of K(n,r), so a defect in
the program's own verifier cannot hide a wrong answer.

Recorded values come from the source paper's tables and from runs of the
seed commit; README.md gives each workload's rationale.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable

EXIT_OK, EXIT_INVALID, EXIT_BUDGET = 0, 1, 2

# Default solver budget of `kneserdom compute` (seconds).
DEFAULT_TIMEOUT = 60.0

# What a failed compute call adds to `search_nodes`: more than ten times the
# nodes of any workload's whole pass at the seed, so that a failure can only
# raise the count.
FAILED_CALL_NODES = 10 ** 7


@dataclass
class Outcome:
    """What a check learned from one call, beyond pass or fail."""

    nodes: int = 0          # search nodes of a call that ended optimal
    lower: int | None = None
    upper: int | None = None
    budgeted: bool = False  # ran under an explicit wall budget


@dataclass
class Call:
    label: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], Outcome]  # raises CheckFailure on a wrong output
    stdin: str | None = None
    timeout: float | None = None     # the call's solver budget, if any
    vertices: int | None = None      # |V(K(n,r))| of a compute call


class CheckFailure(Exception):
    """An output that disagrees with the recorded value or fails a re-check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- independent witness checks --------------------------------------------


def _mask(elements) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << (x - 1)
    return mask


def _all_masks(n: int, r: int) -> list[int]:
    return [_mask(c) for c in combinations(range(1, n + 1), r)]


def _check_family(n: int, r: int, sets: list[list[int]]) -> list[int]:
    _require(all(sorted(s) == s and len(s) == r for s in sets),
             "witness sets must be sorted r-subsets")
    _require(all(1 <= x <= n for s in sets for x in s),
             "witness element outside [1..n]")
    masks = [_mask(s) for s in sets]
    _require(len(set(masks)) == len(masks), "witness repeats a member")
    return masks


def domination_violation(n: int, r: int, sets: list[list[int]],
                         invariant: str, k: int) -> int | None:
    """First vertex (as a mask) whose demand the family misses, else None.

    gamma_k: every non-member has >= k members disjoint from it.
    gamma_xk: every vertex has >= k members in its closed neighbourhood.
    gamma_xkt: every vertex has >= k members in its open neighbourhood.
    """
    members = _check_family(n, r, sets)
    member_set = set(members)
    for u in _all_masks(n, r):
        inside = u in member_set
        if invariant == "gamma_k" and inside:
            continue
        hits = sum(1 for m in members if u & m == 0)
        if invariant == "gamma_xk" and inside:
            hits += 1
        if hits < k:
            return u
    return None


def packing_violation(n: int, r: int, sets: list[list[int]]) -> bool:
    """Whether two members lie at distance <= 2 in K(n,r).

    Distinct u, v are adjacent when disjoint, and share a neighbour when at
    least r elements of [n] avoid both.
    """
    members = _check_family(n, r, sets)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if u & v == 0 or n - (u | v).bit_count() >= r:
                return True
    return False


# --- calls -------------------------------------------------------------------


def _compute_argv(invariant: str, n: int, r: int, k: int | None,
                  timeout: float | None) -> list[str]:
    argv = ["compute", "--invariant", invariant, "--n", str(n), "--r", str(r)]
    if k is not None:
        argv += ["--k", str(k)]
    if timeout is not None:
        argv += ["--timeout", repr(timeout)]
    return argv + ["--format", "json"]


def _witness_ok(doc: dict, n: int, r: int, invariant: str, k: int | None,
                size: int) -> None:
    witness = doc.get("witness")
    _require(isinstance(witness, list), "no witness in output")
    _require(len(witness) == size,
             f"witness has {len(witness)} members, expected {size}")
    if invariant == "rho2":
        _require(not packing_violation(n, r, witness),
                 "witness is not a 2-packing")
    else:
        _require(domination_violation(n, r, witness, invariant, k) is None,
                 f"witness is not {invariant} with k={k}")


def compute(invariant: str, n: int, r: int, k: int | None, value: int) -> Call:
    """A compute call that must end optimal with the recorded value."""
    def check(out: str) -> Outcome:
        doc = json.loads(out)
        _require(doc["status"] == "optimal", f"status {doc['status']}")
        _require(doc["value"] == value,
                 f"value {doc['value']}, recorded {value}")
        _witness_ok(doc, n, r, invariant, k, value)
        return Outcome(nodes=doc["nodes"], lower=value, upper=value)

    label = f"{invariant} K({n},{r})" + ("" if k is None else f" k={k}")
    return Call(label, _compute_argv(invariant, n, r, k, None), EXIT_OK,
                check, timeout=DEFAULT_TIMEOUT, vertices=comb(n, r))


def bracket(invariant: str, n: int, r: int, k: int | None, timeout: float,
            known: int | None) -> Call:
    """A compute call under a wall budget that must end with a bracket.

    The witness certifies one side of the bracket: a 2-packing its lower
    bound, a dominating family its upper bound. A known value must lie
    inside the bracket.
    """
    def check(out: str) -> Outcome:
        doc = json.loads(out)
        _require(doc["status"] == "bounds", f"status {doc['status']}")
        lower, upper = doc["lower_bound"], doc["upper_bound"]
        _require(1 <= lower <= upper, f"bracket [{lower},{upper}]")
        if known is not None:
            _require(lower <= known <= upper,
                     f"bracket [{lower},{upper}] excludes {known}")
        size = lower if invariant == "rho2" else upper
        _witness_ok(doc, n, r, invariant, k, size)
        return Outcome(lower=lower, upper=upper, budgeted=True)

    label = (f"{invariant} K({n},{r})" + ("" if k is None else f" k={k}")
             + f" budget {timeout:g}s")
    return Call(label, _compute_argv(invariant, n, r, k, timeout),
                EXIT_BUDGET, check, timeout=timeout, vertices=comb(n, r))


def reproduce(table: int, rows: list[tuple[str, object]]) -> Call:
    """A reproduce call whose rows must show the recorded values."""
    def check(out: str) -> Outcome:
        doc = json.loads(out)
        _require(doc["passing"] is True, f"table {table} not passing")
        got = [(row["parameters"], row["computed"]) for row in doc["rows"]]
        _require(got == rows, f"table {table} rows differ: {got}")
        return Outcome()

    return Call(f"reproduce table {table}",
                ["reproduce", "--table", str(table), "--format", "json"],
                EXIT_OK, check, timeout=DEFAULT_TIMEOUT)


def verify(invariant: str, k: int, n: int, r: int, sets: list[list[int]],
           checked: int | None) -> Call:
    """A verify call on a family document passed on stdin.

    `checked` is the recorded number of vertices a valid document streams;
    None marks an invalid document, whose reported violation is re-checked.
    """
    document = json.dumps({"n": n, "r": r, "sets": sets})

    def check(out: str) -> Outcome:
        doc = json.loads(out)
        if checked is not None:
            _require(doc["valid"] is True, "valid document rejected")
            _require(doc["checked_count"] == checked,
                     f"checked {doc['checked_count']}, recorded {checked}")
            return Outcome()
        _require(doc["valid"] is False, "invalid document accepted")
        u = _mask(doc["violation"])
        members = [_mask(s) for s in sets]
        hits = sum(1 for m in members if u & m == 0)
        if invariant == "gamma_xk" and u in members:
            hits += 1
        _require(hits < k and not (invariant == "gamma_k" and u in members),
                 f"reported violation {doc['violation']} is not one")
        return Outcome()

    label = f"verify {invariant} k={k} K({n},{r}) " + (
        "valid" if checked is not None else "invalid")
    return Call(label,
                ["verify", "--invariant", invariant, "--k", str(k),
                 "--input", "-", "--format", "json"],
                EXIT_OK if checked is not None else EXIT_INVALID,
                check, stdin=document)


# --- the four workloads -----------------------------------------------------

# Table 1 of the paper (k = 2 invariants of K(n,2)), in the row order of
# `kneserdom reproduce --table 1`; None is the undefined k-tuple total cell.
TABLE1 = {4: (6, 6, None), 5: (4, 6, 8), 6: (5, 6, 6), 7: (5, 5, 5),
          8: (4, 4, 4), 9: (4, 4, 4)}
TABLE1_ROWS = [
    (f"{label}(K({n},2)), k=2", "undefined" if value is None else value)
    for n, cells in TABLE1.items()
    for label, value in zip(("gamma_k", "gamma_xk", "gamma_xkt"), cells)
]
# Table 2: sizes of the recorded packings of K(3r-3, r) for r = 4..8, then
# the exact values 4 and 3 for r = 9 and 10.
TABLE2_ROWS = [
    (f"rho2(K({3 * r - 3},{r}))", f"witness of {size}")
    for r, size in ((4, 12), (5, 12), (6, 10), (7, 6), (8, 5))
] + [("rho2(K(24,9))", 4), ("rho2(K(27,10))", 3)]
TABLE3_ROWS = [
    (f"2-packing of K({3 * r - 3},{r})", f"{size} sets, valid")
    for r, size in ((4, 12), (5, 12), (6, 10), (7, 6), (8, 5))
]

# The disjoint-clique document: k + r disjoint r-blocks of [n] with
# n = r(k + r), which is k-dominating in all three senses.
VERIFY_N, VERIFY_R, VERIFY_K = 40, 5, 3
VERIFY_KINDS = ("gamma_k", "gamma_xk", "gamma_xkt")


def dom_search(rng: random.Random) -> list[Call]:
    return [
        reproduce(1, TABLE1_ROWS),
        compute("gamma_k", 7, 3, 2, 13),
        compute("gamma_xk", 7, 3, 3, 21),
        compute("gamma_xkt", 7, 3, 1, 12),
        compute("gamma_xkt", 8, 3, 1, 8),
        compute("gamma_k", 9, 4, 2, 36),
        compute("gamma_xkt", 16, 3, 2, 5),
    ]


def rho2_clique(rng: random.Random) -> list[Call]:
    return [
        reproduce(2, TABLE2_ROWS),
        reproduce(3, TABLE3_ROWS),
        compute("rho2", 7, 3, None, 7),
        compute("rho2", 9, 4, None, 12),
        compute("rho2", 10, 4, None, 5),
        compute("rho2", 13, 5, None, 3),
        compute("rho2", 16, 6, None, 3),
        compute("rho2", 8, 3, None, 1),
    ]


def clique_documents(rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """The disjoint clique relabelled by a seeded permutation of [n], and
    the seeded member each invalid document drops (one per kind)."""
    n, r, k = VERIFY_N, VERIFY_R, VERIFY_K
    perm = rng.sample(range(1, n + 1), n)
    blocks = [sorted(perm[i * r:(i + 1) * r]) for i in range(k + r)]
    drops = [rng.randrange(len(blocks)) for _ in VERIFY_KINDS]
    return blocks, drops


def bound_certify(rng: random.Random) -> list[Call]:
    n, r, k = VERIFY_N, VERIFY_R, VERIFY_K
    blocks, drops = clique_documents(rng)
    vertices = comb(n, r)
    calls = [
        compute("gamma_k", 15, 3, 2, 5),
        compute("gamma_k", 18, 3, 3, 6),
        compute("gamma_k", 21, 3, 4, 7),
    ]
    for invariant, drop in zip(VERIFY_KINDS, drops):
        # gamma_k exempts the members themselves from the count
        checked = vertices - len(blocks) if invariant == "gamma_k" else vertices
        calls.append(verify(invariant, k, n, r, blocks, checked))
        calls.append(verify(invariant, k, n, r,
                            blocks[:drop] + blocks[drop + 1:], None))
    return calls


# (invariant, n, r, k, budget in seconds, known value). rho2(K(11,5)) = 66
# by the 66 blocks through a point of the Steiner system S(5,6,12), derived
# at that point; the gamma_2 values of K(8,3) and K(9,3) are open.
OPEN_BUDGET = [
    ("rho2", 11, 5, None, 3.0, 66),
    ("gamma_k", 8, 3, 2, 1.0, None),
    ("gamma_k", 9, 3, 2, 1.0, None),
]


def open_budget(rng: random.Random) -> list[Call]:
    return [bracket(*spec) for spec in OPEN_BUDGET]


WORKLOADS: dict[str, Callable[[random.Random], list[Call]]] = {
    "dom-search": dom_search,
    "rho2-clique": rho2_clique,
    "bound-certify": bound_certify,
    "open-budget": open_budget,
}


@dataclass
class Tally:
    """Failure accounting and exact counts over the checked calls.

    Over `compute` calls, `search_nodes` counts 1 per call, for its root
    bounds, plus the nodes a call that ends optimal reports; a call under a
    wall budget counts 1 only, because its node count varies between runs.
    So it is never 0, and it moves with the search wherever one runs.
    `candidate_values` counts the values a call has not excluded: 1 for a
    closed call, ub - lb + 1 for a bracket. A failed compute call counts
    FAILED_CALL_NODES nodes and every value from 1 to its vertex count, so
    a failure never lowers either figure. `open_gap` is the sum of ub - lb
    over the calls under a budget.
    """

    attempted: int = 0
    failed: int = 0
    search_nodes: int = 0
    open_gap: int = 0
    candidate_values: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, call: Call, code: object, out: str, error: str) -> None:
        self.attempted += 1
        try:
            _require(error == "", error)
            _require(code == call.exit_code,
                     f"exit code {code}, expected {call.exit_code}")
            outcome = call.check(out)
        except (CheckFailure, ValueError, LookupError, TypeError,
                AttributeError) as exc:  # malformed output fails the call
            self.failed += 1
            self.failures.append(f"{call.label}: {exc}")
            if call.vertices is not None:
                self.search_nodes += FAILED_CALL_NODES
                self.candidate_values += call.vertices
            return
        if call.vertices is not None:
            self.search_nodes += 1 + outcome.nodes
        if outcome.lower is not None:
            self.candidate_values += outcome.upper - outcome.lower + 1
            if outcome.budgeted:
                self.open_gap += outcome.upper - outcome.lower
