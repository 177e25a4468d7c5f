"""Certificate checking for domination-type sets and 2-packings.

The domination verifier walks the vertices of K(n,r) by class, the classes
being fixed by how many elements a vertex takes from each Venn atom of the
family, and reports the colex-first violating vertex; the 2-packing verifier
counts one member's intersections with all later members at once and
reports the first violating pair. The upper bound on the 2-packing number
from Delsarte's LP is checked through its dual vector, recomputed here from
the Eberlein polynomials.
"""

from __future__ import annotations

from bisect import insort
from enum import Enum
from itertools import accumulate
from math import comb
from typing import TYPE_CHECKING

from .core import (
    DefinabilityError,
    KneserParams,
    ParameterError,
    Record,
    Vertex,
    VertexFamily,
    internal_check,
)

if TYPE_CHECKING:
    from fractions import Fraction


class InvariantKind(Enum):
    K_DOMINATION = "gamma_k"
    K_TUPLE = "gamma_xk"
    K_TUPLE_TOTAL = "gamma_xkt"
    TWO_PACKING = "rho2"


class VerificationReport(Record):
    __slots__ = ("kind", "k", "witness_violation", "checked_count")

    def __init__(self, kind: InvariantKind, k: int,
                 witness_violation: Vertex | tuple[Vertex, Vertex] | None,
                 checked_count: int) -> None:
        self._set_fields(kind, k, witness_violation, checked_count)

    @property
    def valid(self) -> bool:
        """A report is valid exactly when it names no violation."""
        return self.witness_violation is None


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


def _low_prefixes(mask: int, count: int) -> list[int]:
    """[the lowest c elements of mask for c = 0..count]; a c beyond the
    elements of mask has no entry."""
    prefixes = [0]
    while mask and len(prefixes) <= count:
        low = mask & -mask
        prefixes.append(prefixes[-1] | low)
        mask ^= low
    return prefixes


def _colex_rank(mask: int) -> int:
    """How many r-sets come before `mask` in colex order."""
    return sum(comb(x - 1, i) for i, x in enumerate(Vertex(mask).elements, 1))


def _verify_domination(
    D: VertexFamily, kind: InvariantKind, k: int
) -> VerificationReport:
    """Every checked vertex u needs |N(u) ∩ D|, plus its self-credit if u is
    in D, to reach k; exempt members are not checked.

    The vertices are walked by class: how many elements u takes from each
    Venn atom of D's members and from the atom outside them all
    (`KneserParams.atoms`). u misses a member exactly when it takes nothing
    from the member's atoms, so |N(u) ∩ D| is the same across a class; and
    a member's class holds the member alone. The least r-set of a class
    takes the lowest elements of each atom, and the violation reported is
    the least of those over the violating classes, which is the colex-first
    violating vertex. The walk takes the atoms highest first and skips a
    subtree whose least completion is not below the violation found so far,
    so on singleton atoms it is the colex stream of the vertices. It also
    skips a subtree whose every u is sure to miss k members: because the
    members met so far and the atoms left cannot reach k of them, or
    because u takes from at most `left` more atoms, which meet at most the
    members of the `left` atoms with the most members.
    """
    params = D.params
    if not is_defined(params, kind, k):
        raise DefinabilityError(
            f"{kind.value} with k={k} undefined on K({params.n},{params.r})"
        )
    exempt = SELF_CREDIT[kind] == EXEMPT
    credit = self_credit(kind, k)
    masks = D.member_masks()
    member_set = set(masks)
    r, size = params.r, len(masks)
    # (atom, the members that contain it and so meet any u taking from it)
    atoms = sorted(((atom, met) for met, atom in params.atoms(masks).items()),
                   reverse=True)
    # takes[i][c]: the lowest c elements of atom i
    takes = [_low_prefixes(atom, r) for atom, _ in atoms]
    # least[i][left]: the lowest `left` elements of the atoms from i on, or
    # `top`, above every r-set, where they have too few; reach[i]: the
    # members those atoms can still meet, so that the members met so far
    # and out of reach are missed by every u of the subtree
    # most[i][c]: the sum of the c largest member counts of the atoms from
    # i on, the most members that c more atoms can add to those met
    top = 1 << params.n
    least = [[0] + [top] * r]
    reach = [0]
    most = [[0] * (r + 1)]
    largest: list[int] = []  # the r largest of those counts, negated, sorted
    rest = 0
    for atom, met in reversed(atoms):
        rest |= atom
        prefixes = _low_prefixes(rest, r)
        least.append(prefixes + [top] * (r + 1 - len(prefixes)))
        reach.append(reach[-1] | met)
        insort(largest, -met.bit_count())
        del largest[r:]
        sums = [0, *accumulate(-count for count in largest)]
        most.append(sums + sums[-1:] * (r + 1 - len(sums)))
    least.reverse()
    reach.reverse()
    most.reverse()
    best = top

    def walk(i: int, left: int, u: int, met: int) -> None:
        """Visit the classes that take `left` more elements, from the atoms
        from i on, beside u, which meets the members in `met`."""
        nonlocal best
        # the least completion only grows, and the reach and the most
        # members the `left` more atoms can meet only shrink, as the first
        # atom to take from moves up, so one test finds where to stop
        stop = i
        unmet = size - met.bit_count()
        while (stop < len(atoms) and u | least[stop][left] < best
               and size - (met | reach[stop]).bit_count() < k
               and unmet - most[stop][left] < k):
            stop += 1
        # the highest atoms first: the one taken from last comes first
        for j in reversed(range(i, stop)):
            if u | least[j][left] >= best:  # best fell meanwhile
                continue
            met_j = met | atoms[j][1]
            for c, low in enumerate(takes[j][1:left + 1], 1):
                v, more = u | low, left - c
                if more:
                    walk(j + 1, more, v, met_j)
                    continue
                count = size - met_j.bit_count()
                if v in member_set:
                    if exempt:
                        continue
                    count += credit
                if count < k and v < best:
                    best = v

    walk(0, r, 0, 0)
    skipped = size if exempt else 0
    if best == top:
        return VerificationReport(kind, k, None, params.vertex_count - skipped)
    if exempt:
        skipped = sum(1 for m in masks if m < best)
    return VerificationReport(kind, k, Vertex(best),
                              _colex_rank(best) + 1 - skipped)


def packing_intersections(params: KneserParams) -> range:
    """The intersection sizes |u ∩ v| at which distinct vertices u, v of
    K(n,r) are at distance >= 3.

    Disjoint sets are adjacent, and u, v share a neighbor exactly when at
    least r elements lie outside u ∪ v, that is n - (2r - |u ∩ v|) >= r.
    So the sizes are 1 .. 3r-1-n, an empty range once n >= 3r-1.
    """
    return range(1, 3 * params.r - params.n)


def check_delsarte_dual(params: KneserParams, dual: list[Fraction],
                        bound: Fraction) -> None:
    """Raise InternalCheckError unless `dual` proves that no 2-packing of
    K(n,r), 2r+1 <= n <= 3r-2, has more than `bound` members.

    The proof is weak duality for Delsarte's LP. Let a be a packing's
    distance distribution over the Johnson distances d in
    packing_intersections, mapped by d = r - |u ∩ v|, and write
    q_d(k) = E_d(k) / (C(r,d) C(n-r,d)), E the Eberlein polynomial. The
    packing has 1 + sum_d a_d members, and Delsarte's inequalities give
    sum_d a_d q_d(k) >= -1 for k = 1..r. So with y >= 0 and
    sum_k y_k q_d(k) <= -1 for each d, the size is at most
    1 + sum_d a_d (-sum_k y_k q_d(k)) <= 1 + sum_k y_k.
    """
    n, r = params.n, params.r
    internal_check(len(dual) == r and min(dual) >= 0,
                   "Delsarte dual is not a nonnegative vector of length r")
    for d in (r - size for size in packing_intersections(params)):
        total = 0
        for k, y in enumerate(dual, 1):
            eberlein = sum((-1) ** j * comb(k, j) * comb(r - k, d - j)
                           * comb(n - r - k, d - j) for j in range(d + 1))
            total += y * eberlein
        internal_check(total <= -comb(r, d) * comb(n - r, d),
                       f"Delsarte dual violates the constraint of distance {d}")
    internal_check(bound == 1 + sum(dual),
                   "Delsarte bound is not 1 + the sum of its dual")


def verify_2_packing(S: VertexFamily) -> VerificationReport:
    """All distinct member pairs must be at distance >= 3; the report names
    the first violating pair (i, j), i < j, in row-by-row order, and counts
    the pairs up to it.

    Each row is one bit-parallel step. holders[x] is the bitset of the
    members containing element x; shifted right past member i, it holds
    only the later members. Adding those of member i's elements into a
    bit-sliced counter, with a ripple carry that stops once the carry is
    empty, leaves in bit b of digit d binary digit d of
    |members[i] ∩ members[i+1+b]| for every later member at once. The ones
    whose count spells no allowed size violate. Families with at most one
    member are trivially valid.
    """
    allowed = packing_intersections(S.params)
    members = S.members
    holders: dict[int, int] = {}  # element bit -> the members holding it
    for j, m in enumerate(S.member_masks()):
        while m:
            low = m & -m
            holders[low] = holders.get(low, 0) | 1 << j
            m ^= low
    width = S.params.r.bit_length()  # no intersection exceeds r
    checked = 0
    for i, u in enumerate(members):
        later = len(members) - 1 - i
        digits = [0] * width
        m = u.mask
        while m:
            low = m & -m
            carry = holders[low] >> (i + 1)
            for d, digit in enumerate(digits):
                digits[d], carry = digit ^ carry, digit & carry
                if not carry:
                    break
            m ^= low
        bad = (1 << later) - 1  # the later members; allowed sizes leave it
        for size in allowed:
            equal = bad
            for d, digit in enumerate(digits):
                equal &= digit if size >> d & 1 else ~digit
            bad ^= equal
        if bad:
            b = (bad & -bad).bit_length() - 1
            return VerificationReport(InvariantKind.TWO_PACKING, 0,
                                      (u, members[i + 1 + b]),
                                      checked + b + 1)
        checked += later
    return VerificationReport(InvariantKind.TWO_PACKING, 0, None, checked)


def verify(
    family: VertexFamily, kind: InvariantKind, k: int = 0
) -> VerificationReport:
    """Dispatch to the verifier for the given invariant kind."""
    if kind is InvariantKind.TWO_PACKING:
        return verify_2_packing(family)
    return _verify_domination(family, kind, k)
