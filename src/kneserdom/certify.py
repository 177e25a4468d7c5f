"""Certificate checking for domination-type sets and 2-packings.

Each verifier enumerates the vertices of K(n,r) in colex order (or the
member pairs, for 2-packings) and reports the first violation it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    DefinabilityError,
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    distance_at_most_2,
    internal_check,
    popcount,
)


class InvariantKind(Enum):
    K_DOMINATION = "gamma_k"
    K_TUPLE = "gamma_xk"
    K_TUPLE_TOTAL = "gamma_xkt"
    TWO_PACKING = "rho2"


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    kind: InvariantKind
    k: int
    witness_violation: Vertex | tuple[Vertex, Vertex] | None
    checked_count: int

    def __post_init__(self) -> None:
        internal_check(self.valid == (self.witness_violation is None),
                       "a report is valid exactly when it names no violation")


# How much a member of D counts toward its own demand of k. Under
# k-domination members are exempt: they are not checked, which the search
# models as a credit of k. A member lies in its own closed neighborhood (1)
# but not in its open one (0).
EXEMPT = "exempt"
SELF_CREDIT: dict[InvariantKind, int | str] = {
    InvariantKind.K_DOMINATION: EXEMPT,
    InvariantKind.K_TUPLE: 1,
    InvariantKind.K_TUPLE_TOTAL: 0,
}


def self_credit(kind: InvariantKind, k: int) -> int:
    """The credit a member of D earns toward its own demand of k."""
    credit = SELF_CREDIT[kind]
    return k if credit == EXEMPT else credit


def is_defined(params: KneserParams, kind: InvariantKind, k: int) -> bool:
    """Whether some family meets the demand: D = V(G) gives each vertex its
    degree plus its self-credit, and no family gives more."""
    return params.min_degree + self_credit(kind, k) >= k


def _verify_domination(
    D: VertexFamily, kind: InvariantKind, k: int, ceiling: int | None
) -> VerificationReport:
    """Every checked vertex u needs |N(u) ∩ D|, plus its self-credit if u is
    in D, to reach k; exempt members are not checked."""
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if not is_defined(D.params, kind, k):
        raise DefinabilityError(
            f"{kind.value} with k={k} undefined on K({D.params.n},{D.params.r})"
        )
    D.params.check_capacity(ceiling)
    exempt = SELF_CREDIT[kind] == EXEMPT
    credit = self_credit(kind, k)
    masks = D.member_masks()
    member_set = set(masks)
    checked = 0
    for u in D.params.vertex_masks():
        hits = 0
        if u in member_set:
            if exempt:
                continue
            hits = credit
        checked += 1
        for m in masks:
            if (u & m) == 0:
                hits += 1
                if hits >= k:
                    break
        if hits < k:
            return VerificationReport(False, kind, k, Vertex(u), checked)
    return VerificationReport(True, kind, k, None, checked)


def verify_k_dominating(
    D: VertexFamily, k: int, ceiling: int | None = None
) -> VerificationReport:
    """Every vertex outside D must have at least k neighbors in D."""
    return _verify_domination(D, InvariantKind.K_DOMINATION, k, ceiling)


def verify_k_tuple_dominating(
    D: VertexFamily, k: int, ceiling: int | None = None
) -> VerificationReport:
    """Every closed neighborhood must contain at least k members of D."""
    return _verify_domination(D, InvariantKind.K_TUPLE, k, ceiling)


def verify_k_tuple_total_dominating(
    D: VertexFamily, k: int, ceiling: int | None = None
) -> VerificationReport:
    """Every open neighborhood must contain at least k members of D."""
    return _verify_domination(D, InvariantKind.K_TUPLE_TOTAL, k, ceiling)


def verify_2_packing(S: VertexFamily) -> VerificationReport:
    """All distinct member pairs must be at distance >= 3.

    For 2r+1 <= n <= 3r-2 this is the pairwise-intersection test
    1 <= |u ∩ v| <= 3r-1-n; outside that band the general common-neighbor
    test is used. Families with at most one member are trivially valid.
    """
    n, r = S.params.n, S.params.r
    use_intersection_test = 2 * r + 1 <= n <= 3 * r - 2
    cap = 3 * r - 1 - n
    members = S.members
    checked = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = members[i], members[j]
            checked += 1
            if use_intersection_test:
                inter = popcount(u.mask & v.mask)
                bad = not (1 <= inter <= cap)
            else:
                bad = distance_at_most_2(u, v, S.params)
            if bad:
                return VerificationReport(
                    False, InvariantKind.TWO_PACKING, 0, (u, v), checked
                )
    return VerificationReport(True, InvariantKind.TWO_PACKING, 0, None, checked)


def verify(
    family: VertexFamily,
    kind: InvariantKind,
    k: int = 0,
    ceiling: int | None = None,
) -> VerificationReport:
    """Dispatch to the verifier for the given invariant kind."""
    if kind is InvariantKind.TWO_PACKING:
        return verify_2_packing(family)
    return _verify_domination(family, kind, k, ceiling)
