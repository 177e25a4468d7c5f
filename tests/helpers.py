"""Shared builders and independent oracles for the test suite: block
packings, seeded perturbations, neighbor counts, the distance <= 2 test, a
brute-force domination solver, vertex-by-vertex and pair-by-pair
references, and Delsarte's LP on a Fraction tableau."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from kneserdom import (
    CapacityError,
    InvariantKind,
    KneserParams,
    ParameterError,
    SolveResult,
    VerificationReport,
    Vertex,
    VertexFamily,
    verify_2_packing,
)
from kneserdom.certify import check_k
from kneserdom.solve import _LOCAL_MOVES, _LOCAL_SEED, _TABU_TENURE, _bits


def vertices(params: KneserParams) -> list[Vertex]:
    """The vertices of K(n,r) in colex order, enumerated by
    `KneserParams.vertex_masks`, which checks the vertex ceiling."""
    return [Vertex(mask) for mask in params.vertex_masks()]


def closed_neighbor_count(u: Vertex, D: VertexFamily) -> int:
    """|N[u] ∩ D| in K(n,r): disjoint members, plus u itself if u in D."""
    u.validate_for(D.params)
    count = sum(1 for v in D.members if (u.mask & v.mask) == 0)
    if u in D:
        count += 1
    return count


def open_neighbor_count(u: Vertex, D: VertexFamily) -> int:
    """|N(u) ∩ D| in K(n,r); never counts u itself."""
    u.validate_for(D.params)
    return sum(1 for v in D.members if (u.mask & v.mask) == 0)


def distance_at_most_2(u: Vertex, v: Vertex, params: KneserParams) -> bool:
    """Whether distinct u, v are adjacent or share a neighbor in K(n,r).

    A common neighbor is an r-subset avoiding u and v, which exists exactly
    when at least r elements of [n] lie outside u ∪ v.
    """
    u.validate_for(params)
    v.validate_for(params)
    if u.mask == v.mask:
        raise ParameterError("distance_at_most_2 requires distinct vertices")
    if (u.mask & v.mask) == 0:
        return True
    free = params.n - (u.mask | v.mask).bit_count()
    return free >= params.r


_BRUTE_VERTEX_LIMIT = 40
_BRUTE_SIZE_LIMIT = 8


def brute_force_domination(
    params: KneserParams, kind: InvariantKind, k: int,
    size_limit: int = _BRUTE_SIZE_LIMIT,
) -> SolveResult:
    """Enumerate families by cardinality and return the first valid one.

    Independent of the branch-and-bound path: validity is decided by a plain
    double loop over vertices and members, and definability by whether the
    whole vertex set is valid, since validity is closed under supersets.
    Guarded to graphs with at most 40 vertices and optimum at most
    `size_limit`, 8 unless the caller raises it.
    """
    if kind is InvariantKind.TWO_PACKING:
        raise ParameterError("the oracle covers domination kinds only")
    check_k(k)
    start = time.monotonic()
    V = params.vertex_count
    if V > _BRUTE_VERTEX_LIMIT:
        raise CapacityError(
            f"brute force limited to {_BRUTE_VERTEX_LIMIT} vertices, got {V}"
        )
    masks = list(params.vertex_masks())

    def valid(chosen: tuple[int, ...]) -> bool:
        chosen_set = set(chosen)
        for i, u in enumerate(masks):
            inside = i in chosen_set
            if kind is InvariantKind.K_DOMINATION and inside:
                continue
            count = sum(1 for j in chosen if masks[j] & u == 0)
            if kind is InvariantKind.K_TUPLE and inside:
                count += 1
            if count < k:
                return False
        return True

    if not valid(tuple(range(V))):
        return SolveResult(None, None, wall_time=time.monotonic() - start)
    checked = 0
    for s in range(1, min(V, size_limit) + 1):
        for combo in combinations(range(V), s):
            checked += 1
            if valid(combo):
                witness = VertexFamily(
                    params, tuple(Vertex(masks[i]) for i in combo)
                )
                return SolveResult(s, s, witness, checked,
                                   time.monotonic() - start)
    raise CapacityError(
        f"no family of size <= {size_limit} found; outside oracle guard"
    )


def block_packing(r: int, t: int, size: int, held: int = 0) -> VertexFamily:
    """A 2-packing of `size` vertices of K(3r-t, r) with all intersections t-1.

    Generalizes the four-vertex block witness: one shared block per member
    pair and one private block per member, laid out consecutively on [n].
    With `held` > 0, element 1 comes first and the first `held` members
    hold it: the blocks of the pairs among them are one element narrower,
    so that their intersections stay t-1, and each of them gets held-2 more
    private elements, the ones normalization spends around element 1.
    """
    assert size in (4, 5) and 0 <= held <= size
    n = 3 * r - t
    sets = [[1] if i < held else [] for i in range(size)]
    pos = 2 if held else 1
    for pair in combinations(range(size), 2):
        width = t - 1 - (pair[1] < held)
        for i in pair:
            sets[i].extend(range(pos, pos + width))
        pos += width
    for members in sets:
        private = r - len(members)
        assert private >= 0, f"r={r} too small for t={t}, size={size}"
        members.extend(range(pos, pos + private))
        pos += private
    assert pos - 1 <= n, f"blocks need {pos - 1} elements, only {n} available"
    family = VertexFamily.from_sets(KneserParams(n, r), sets)
    assert verify_2_packing(family).valid
    assert held < 3 or max(family.occurrences) == held
    return family


def perturb_packing(
    family: VertexFamily, rng: random.Random, rounds: int = 1
) -> VertexFamily:
    """Make `rounds` elements occur three times while staying a 2-packing.

    Each round picks three members and a fresh element x, adds x to all
    three, and removes one pair-exclusive shared element per member pair so
    that every pairwise intersection cardinality is unchanged.
    """
    members = [set(v.elements) for v in family.members]
    n = family.params.n

    for _ in range(rounds):
        for _attempt in range(200):
            occ = {x: sum(x in m for m in members) for x in range(1, n + 1)}
            fresh = [x for x in range(1, n + 1) if occ[x] == 0]
            if not fresh:
                raise AssertionError("no unused element left to inject")
            x = rng.choice(fresh)
            trio = sorted(rng.sample(range(len(members)), 3))
            pairs = [(trio[0], trio[1]), (trio[1], trio[2]), (trio[0], trio[2])]
            owners = [trio[0], trio[1], trio[2]]  # who gives up an element
            removals = []
            for (i, j), owner in zip(pairs, owners):
                exclusive = [
                    e for e in members[i] & members[j]
                    if occ[e] == 2 and e not in (rem for _, rem in removals)
                ]
                if not exclusive:
                    break
                removals.append((owner, rng.choice(exclusive)))
            if len(removals) < 3:
                continue
            for owner, elem in removals:
                members[owner].discard(elem)
                members[owner].add(x)
            break
        else:
            raise AssertionError("could not find a valid perturbation")

    out = VertexFamily.from_sets(family.params, [sorted(m) for m in members])
    assert verify_2_packing(out).valid
    assert max(out.occurrences) >= 3
    return out


def pairwise_intersections(family: VertexFamily) -> dict[tuple[int, int], int]:
    return {
        (i, j): (family.members[i].mask & family.members[j].mask).bit_count()
        for i, j in combinations(range(len(family)), 2)
    }


def reference_domination_report(
    D: VertexFamily, kind: InvariantKind, k: int
) -> VerificationReport:
    """The domination verifier's report, vertex by vertex from the
    definitions: the colex-first vertex whose neighbor count falls short of
    k, and how many vertices were checked up to it. k-domination skips the
    members; k-tuple domination counts the closed neighborhood; k-tuple
    total domination the open one."""
    checked = 0
    for u in vertices(D.params):
        if kind is InvariantKind.K_DOMINATION:
            if u in D:
                continue
            count = open_neighbor_count(u, D)
        elif kind is InvariantKind.K_TUPLE:
            count = closed_neighbor_count(u, D)
        else:
            count = open_neighbor_count(u, D)
        checked += 1
        if count < k:
            return VerificationReport(kind, k, u, checked)
    return VerificationReport(kind, k, None, checked)


def bron_kerbosch_rho2(params: KneserParams) -> int:
    """rho2(K(n,r)) as the largest clique of the graph joining the vertex
    pairs at distance >= 3, built pair by pair with `distance_at_most_2` and
    searched by a plain Bron-Kerbosch with pivoting: no coloring bound and
    no symmetry."""
    pool = vertices(params)
    far: dict[int, set[int]] = {i: set() for i in range(len(pool))}
    for i, j in combinations(range(len(pool)), 2):
        if not distance_at_most_2(pool[i], pool[j], params):
            far[i].add(j)
            far[j].add(i)
    best = 0

    def expand(size: int, P: set[int], X: set[int]) -> None:
        nonlocal best
        if not P and not X:
            best = max(best, size)
            return
        pivot = max(P | X, key=lambda u: len(P & far[u]))
        for v in list(P - far[pivot]):
            expand(size + 1, P & far[v], X & far[v])
            P.remove(v)
            X.add(v)

    expand(0, set(far), set())
    return best


def reference_shrink(search, family: list[int], lower: int):
    """`_DominationSearch.shrink` as first written, with a tabu list, a
    closure over it and `max`/`min` over `_gain`/`_loss`: the rewrite must
    yield the same families, draw the same random numbers and check the
    deadline as often."""
    rng = random.Random(_LOCAL_SEED)

    def allowed(pool: int, move: int) -> list[int]:
        members = list(_bits(pool))
        return [v for v in members if tabu[v] <= move] or members

    search._reset()
    for v in family:
        search._place(v, 1)
    for _ in range(len(family) - 1, lower - 1, -1):
        search._place(min(_bits(search.chosen), key=search._loss), -1)
        tabu = [0] * search.V  # tabu[v]: the first move that may move v
        for move in range(_LOCAL_MOVES):
            search.deadline.check()
            if not search.needy:
                break
            u = rng.choice(list(_bits(search.needy)))
            v = max(allowed(search.helpers[u] & ~search.chosen, move),
                    key=search._gain)
            search._place(v, 1)
            w = min(allowed(search.chosen & ~(1 << v), move),
                    key=search._loss)
            search._place(w, -1)
            tabu[v] = tabu[w] = move + 1 + _TABU_TENURE
        if search.needy:
            return
        yield list(_bits(search.chosen))


def reference_delsarte_lp(n: int, r: int) -> tuple[Fraction, list[Fraction]]:
    """Delsarte's LP bound on the 2-packings of K(n,r) inside the band and
    its dual, by the primal simplex on a dense Fraction tableau with Bland's
    rule: `solve.delsarte_lp` must make the same pivots and return the same
    bound and dual exactly. Rows k = 1..r read
    -sum_d a_d E_d(k)/(C(r,d) C(n-r,d)) + s_k = 1 over the distances d of a
    2-packing, r-cap .. r-1 with cap = 3r-1-n; the objective is sum_d a_d."""
    def eberlein(d: int, k: int) -> int:
        return sum((-1) ** j * comb(k, j) * comb(r - k, d - j)
                   * comb(n - r - k, d - j) for j in range(min(k, d) + 1))

    cap = 3 * r - 1 - n
    dists = range(r - cap, r)
    width = cap + r  # the a_d columns, then one slack column per k
    rows = []
    for k in range(1, r + 1):
        row = [Fraction(-eberlein(d, k), comb(r, d) * comb(n - r, d))
               for d in dists]
        row += [Fraction(int(i == k - 1)) for i in range(r)] + [Fraction(1)]
        rows.append(row)
    objective = [Fraction(-1)] * cap + [Fraction(0)] * (r + 1)
    basis = list(range(cap, width))
    while True:
        entering = next((j for j in range(width) if objective[j] < 0), None)
        if entering is None:
            break
        candidates = [(row[-1] / row[entering], basis[i], i)
                      for i, row in enumerate(rows) if row[entering] > 0]
        assert candidates, "Delsarte LP is unbounded"
        _, _, leaving = min(candidates)
        pivot = rows[leaving]
        scale = pivot[entering]
        pivot[:] = [x / scale for x in pivot]
        for row in rows + [objective]:
            factor = row[entering]
            if row is not pivot and factor:
                row[:] = [x - factor * p for x, p in zip(row, pivot)]
        basis[leaving] = entering
    return 1 + objective[-1], objective[cap:width]
