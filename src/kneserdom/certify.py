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
    internal_check,
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


def check_k(k: int) -> None:
    """Reject a demand k below 1: the domination kinds need k >= 1."""
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")


def is_defined(params: KneserParams, kind: InvariantKind, k: int) -> bool:
    """Whether some family meets the demand: D = V(G) gives each vertex its
    degree plus its self-credit, and no family gives more. Raises
    ParameterError for k < 1 (`check_k`)."""
    check_k(k)
    return params.min_degree + self_credit(kind, k) >= k


def _verify_domination(
    D: VertexFamily, kind: InvariantKind, k: int
) -> VerificationReport:
    """Every checked vertex u needs |N(u) ∩ D|, plus its self-credit if u is
    in D, to reach k; exempt members are not checked."""
    if not is_defined(D.params, kind, k):
        raise DefinabilityError(
            f"{kind.value} with k={k} undefined on K({D.params.n},{D.params.r})"
        )
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


def packing_intersections(params: KneserParams) -> range:
    """The intersection sizes |u ∩ v| at which distinct vertices u, v of
    K(n,r) are at distance >= 3.

    Disjoint sets are adjacent, and u, v share a neighbor exactly when at
    least r elements lie outside u ∪ v, that is n - (2r - |u ∩ v|) >= r.
    So the sizes are 1 .. 3r-1-n, an empty range once n >= 3r-1.
    """
    return range(1, 3 * params.r - params.n)


def verify_2_packing(S: VertexFamily) -> VerificationReport:
    """All distinct member pairs must be at distance >= 3.

    Families with at most one member are trivially valid.
    """
    allowed = packing_intersections(S.params)
    members = S.members
    checked = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = members[i], members[j]
            checked += 1
            if (u.mask & v.mask).bit_count() not in allowed:
                return VerificationReport(
                    False, InvariantKind.TWO_PACKING, 0, (u, v), checked
                )
    return VerificationReport(True, InvariantKind.TWO_PACKING, 0, None, checked)


def verify(
    family: VertexFamily, kind: InvariantKind, k: int = 0
) -> VerificationReport:
    """Dispatch to the verifier for the given invariant kind."""
    if kind is InvariantKind.TWO_PACKING:
        return verify_2_packing(family)
    return _verify_domination(family, kind, k)
