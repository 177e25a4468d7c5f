"""Explicit witness constructions, lifting maps, and packing normalization.

Every function returns a VertexFamily whose defining property can be checked
with the verifiers in `certify`; the test suite runs the full
construction-by-verifier matrix. The ρ₄ block witness and the normalization
rewrite each state one rule over member pairs.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import combinations

from .certify import verify_2_packing
from .core import (
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    internal_check,
)


def _interval(lo: int, hi: int) -> list[int]:
    """Closed 1-based interval [lo..hi]; empty when lo > hi."""
    return list(range(lo, hi + 1))


def disjoint_clique(k: int, r: int, n: int | None = None) -> VertexFamily:
    """k+r pairwise-disjoint consecutive r-blocks, a clique of K(n,r).

    Member i is [(i-1)r+1 .. ir]; requires n >= r(k+r), the default n. The
    result is a k-tuple total dominating set.
    """
    if k < 1 or r < 1:
        raise ParameterError(f"k and r must be positive, got k={k}, r={r}")
    if n is None:
        n = r * (k + r)
    if n < r * (k + r):
        raise ParameterError(
            f"disjoint clique of {k + r} r-blocks needs n >= r(k+r) = "
            f"{r * (k + r)}, got n={n}"
        )
    params = KneserParams(n, r)
    sets = [_interval((i - 1) * r + 1, i * r) for i in range(1, k + r + 1)]
    return VertexFamily.from_sets(params, sets)


def gamma_kt_boundary(k: int, r: int) -> VertexFamily:
    """A k-tuple total dominating set of size k+r+1 in K(r(k+r)-1, r).

    The family is A ∪ B where A is an independent triple around [2r-1] and B
    consists of k+r-2 further disjoint r-blocks.
    """
    if k < 2:
        raise ParameterError(f"boundary construction needs k >= 2, got {k}")
    if r < 2:
        raise ParameterError(f"boundary construction needs r >= 2, got {r}")
    n = r * (k + r) - 1
    params = KneserParams(n, r)
    a_part = [
        _interval(1, r),
        _interval(1, r - 1) + [r + 1],
        _interval(r, 2 * r - 1),
    ]
    b_part = [_interval(j * r, (j + 1) * r - 1) for j in range(2, k + r)]
    return VertexFamily.from_sets(params, a_part + b_part)


def rho3_witness(r: int, t: int) -> VertexFamily:
    """A 2-packing of three vertices in K(3r-t, r).

    Pairwise intersections are [t-1] for the first pair and {1} for the two
    pairs involving the third member.
    """
    if not 2 <= t <= r - 1:
        raise ParameterError(f"rho3 witness needs 2 <= t <= r-1, got r={r}, t={t}")
    params = KneserParams(3 * r - t, r)
    u1 = _interval(1, r)
    u2 = _interval(1, t - 1) + _interval(r + 1, 2 * r - t + 1)
    u3 = [1] + _interval(2 * r - t + 2, 3 * r - t)
    return VertexFamily.from_sets(params, [u1, u2, u3])


def rho4_witness(r: int, t: int) -> VertexFamily:
    """A 2-packing of four vertices in K(3r-t, r) with all intersections t-1.

    Laid out consecutively on [n]: one shared block of t-1 elements per
    member pair, the pairs in `combinations` order, then one private block
    of r - 3(t-1) elements per member. Member i is the union of the blocks
    of its three pairs and its private block. Requires
    (9/2)(t-1) <= r < 5(t-1).
    """
    if t < 2:
        raise ParameterError(f"rho4 witness needs t >= 2, got {t}")
    if not (9 * (t - 1) <= 2 * r and r < 5 * (t - 1)):
        raise ParameterError(
            f"rho4 witness needs (9/2)(t-1) <= r < 5(t-1), got r={r}, t={t}"
        )
    n = 3 * r - t
    block_a = t - 1
    block_b = r - 3 * (t - 1)
    internal_check(block_b >= 0 and 6 * block_a + 4 * block_b <= n,
                   "rho4 blocks do not fit on [n]")
    params = KneserParams(n, r)

    sets: list[list[int]] = [[] for _ in range(4)]
    pos = 1
    for pair in combinations(range(4), 2):
        block = _interval(pos, pos + block_a - 1)
        for i in pair:
            sets[i] += block
        pos += block_a
    for members in sets:
        members += _interval(pos, pos + block_b - 1)
        pos += block_b
    return VertexFamily.from_sets(params, sets)


def doubling_lift(S: VertexFamily, a: int) -> VertexFamily:
    """Lift a 2-packing of the odd graph K(2r+1, r) into K(2r+1+2a, r+a).

    Each member v yields the two members v ∪ [(n+1)..(n+a)] and
    v ∪ [(n+a+1)..(n+2a)], doubling the packing size. Requires a >= 2.
    """
    n, r = S.params.n, S.params.r
    if n != 2 * r + 1:
        raise ParameterError(
            f"doubling lift needs an odd graph K(2r+1,r), got K({n},{r})"
        )
    if a < 2:
        raise ParameterError(f"doubling lift needs a >= 2, got {a}")
    params = KneserParams(n + 2 * a, r + a)
    first = sum(1 << (x - 1) for x in _interval(n + 1, n + a))
    second = sum(1 << (x - 1) for x in _interval(n + a + 1, n + 2 * a))
    members = []
    for v in S.members:
        members.append(Vertex(v.mask | first))
        members.append(Vertex(v.mask | second))
    return VertexFamily(params, tuple(members))


def diagonal_lift(S: VertexFamily) -> VertexFamily:
    """Lift a 2-packing of K(n,r) into K(n+1, r+1) by adjoining element n+1."""
    n, r = S.params.n, S.params.r
    if n < 2 * r + 1:
        raise ParameterError(
            f"diagonal lift needs n >= 2r+1, got K({n},{r})"
        )
    params = KneserParams(n + 1, r + 1)
    extra = 1 << n
    members = tuple(Vertex(v.mask | extra) for v in S.members)
    return VertexFamily(params, members)


# --- normalization of small packings to element occurrences <= 2 ---------


def _replace(v: Vertex, remove: set[int], add: set[int]) -> Vertex:
    elems = set(v.elements)
    internal_check(remove <= elems and not (add & elems),
                   "rewrite removes an absent or adds a present element")
    return Vertex.from_elements(sorted((elems - remove) | add))


def _x1_elements(member: Vertex, occurrences: tuple[int, ...]) -> list[int]:
    """Elements of the member occurring exactly once in the family, ascending."""
    return [x for x in member.elements if occurrences[x - 1] == 1]


def _take(pool: list[int], count: int, x: int) -> list[int]:
    internal_check(len(pool) >= count,
                   f"needed {count} singly-occurring elements to rewrite "
                   f"around element {x}, found only {len(pool)}")
    return pool[:count]


def _rewrite_step(members: list[Vertex], occ: tuple[int, ...], x: int) -> list[Vertex]:
    """Take x out of its c holders, 3 <= c <= 5, and give each pair of them
    one shared element instead: the last holder for the pair (first, last),
    the lower one for any other pair, copies one of its singly-occurring
    elements into the other. A holder gives, in pair order, then drops its
    c-2 lowest such elements, so sizes and pair intersections are kept."""
    holders = [i for i, v in enumerate(members) if v.mask >> (x - 1) & 1]
    spend = {i: _take(_x1_elements(members[i], occ), len(holders) - 2, x)
             for i in holders}
    received: dict[int, set[int]] = {i: set() for i in holders}
    for a, b in combinations(holders, 2):
        if a == holders[0] and b == holders[-1]:
            a, b = b, a
        received[b].add(spend[a].pop(0))
    new = list(members)
    for i in holders:  # what a holder has not given, it drops
        new[i] = _replace(members[i], {x, *spend[i]}, received[i])
    return new


def normalize_packing(S: VertexFamily) -> VertexFamily:
    """Rewrite a 2-packing of 4 or 5 vertices until every i_x <= 2.

    Family size and all pairwise intersection cardinalities are preserved
    member by member. Each step picks the smallest element occurring at least
    three times, takes it out of all its holders, and gives each pair of
    holders one of their singly-occurring elements in its place, the same
    rule for 3, 4 or 5 holders (`_rewrite_step`). The number of
    over-occurring elements strictly decreases, so at most n steps are taken.
    """
    n, r = S.params.n, S.params.r
    size = len(S)
    if size not in (4, 5):
        raise ParameterError(f"normalization handles families of 4 or 5, got {size}")
    t = 3 * r - n
    if r < 3 or t < 2:
        raise ParameterError(
            f"normalization needs r >= 3 and n <= 3r-2, got K({n},{r})"
        )
    if (size - 1) * t > r + size - 1:
        raise ParameterError(f"size-{size} normalization needs "
                             f"t <= (r+{size - 1})/{size - 1}, got t={t}, r={r}")
    if not verify_2_packing(S).valid:
        raise ParameterError("normalization input must be a 2-packing")

    members = list(S.members)
    occ = S.occurrences
    over = sum(1 for c in occ if c >= 3)
    steps = 0
    while over > 0:
        internal_check(steps < n,
                       "rewrite loop exceeded n steps without converging")
        x = min(x for x in range(1, n + 1) if occ[x - 1] >= 3)
        members = _rewrite_step(members, occ, x)
        family = VertexFamily(S.params, tuple(members))
        occ = family.occurrences
        new_over = sum(1 for c in occ if c >= 3)
        internal_check(new_over < over, f"rewrite around element {x} did not "
                                        "reduce over-occurring elements")
        over = new_over
        steps += 1
    return VertexFamily(S.params, tuple(members))


# --- the explicit packings of K(3r-3, r) for small r ---------------------

# The recorded sets, keyed by r; the data file is their only source.
_TABLE3_FILE = resources.files(__package__).joinpath("data", "table3.json")
TABLE3_PACKINGS: dict[int, list[list[int]]] = {
    int(r): sets for r, sets in json.loads(_TABLE3_FILE.read_bytes()).items()
}


def table3_packing(r: int) -> VertexFamily:
    """The recorded 2-packing of K(3r-3, r), for r in {4,...,8}."""
    if r not in TABLE3_PACKINGS:
        raise ParameterError(f"recorded packings exist for r in 4..8, got {r}")
    params = KneserParams(3 * r - 3, r)
    return VertexFamily.from_sets(params, TABLE3_PACKINGS[r])
