"""Exact solvers for domination invariants and the 2-packing number.

Domination numbers close by the theorem bound and a disjoint clique when
n >= r(k+r), and otherwise by iterative deepening with branch and bound over
vertex subsets, which cuts a node when the largest gains (deficit removed per
vertex) of as many free vertices as may still be chosen cannot cover the
deficit left; the 2-packing number by maximum-clique branch and bound
on the pairwise-compatibility graph (pairs at distance >= 3), with closed-form
shortcuts where the value is forced: diameter-2 graphs, and the threshold
ranges where counting the occurrences of elements in a normalized packing
pins the value to 3 or 4.

Both graphs relate two vertices by the size of their intersection: 0 for
K(n,r) itself, `packing_intersections` for the compatibility graph. One
bit-sliced build (`_relation_bitsets`) makes either from its set of sizes.

With symmetry breaking both searches fix the colex-first vertex v0, as the
symmetric group acts vertex-transitively, and branch at the next level on one
vertex per orbit of the permutations fixing what is already chosen (orbital
branching); the orbits come from intersection sizes with the fixed sets.

A solver's budget counts from the start of the solve, graph build included,
and is checked inside the search. A solver result is the bracket
[lower_bound, upper_bound] it proved, and its status and value follow from
that bracket. Every witness a solver returns, whether the bracket closed or
a deadline stopped the search, passes its verifier on the way out; the
witness attains the bracket's upper bound for domination and its lower bound
for the 2-packing number.

A slow brute-force oracle is provided for cross-validation at tiny sizes.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .certify import (
    InvariantKind,
    VerificationReport,
    is_defined,
    packing_intersections,
    self_credit,
    verify,
    verify_2_packing,
)
from .core import (
    CapacityError,
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
    internal_check,
)
from .construct import disjoint_clique, rho3_witness, rho4_witness


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    BOUNDS = "bounds"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class SolverConfig:
    timeout: float = 60.0
    symmetry_breaking: bool = True

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # also rejects NaN, which never expires
            raise ParameterError(f"timeout must be positive, got {self.timeout}")


@dataclass
class SolveResult:
    """The bracket a solver proved, the witness it found, and its effort.

    A lower bound of None marks an undefined invariant; a closed bracket is
    the optimum; an open one is what a deadline left.
    """

    lower_bound: int | None
    upper_bound: int | None
    witness: VertexFamily | None = None
    nodes: int = 0
    wall_time: float = 0.0

    @property
    def status(self) -> SolveStatus:
        if self.lower_bound is None:
            return SolveStatus.UNDEFINED
        if self.lower_bound == self.upper_bound:
            return SolveStatus.OPTIMAL
        return SolveStatus.BOUNDS

    @property
    def value(self) -> int | None:
        return self.lower_bound if self.optimal else None

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def _certified(witness: VertexFamily, report: VerificationReport, lb: int,
               ub: int, nodes: int, start: float) -> SolveResult:
    """The one exit of every solver result that carries a witness."""
    internal_check(report.valid, "solver produced an invalid witness")
    return SolveResult(lb, ub, witness, nodes, time.monotonic() - start)


class _Timeout(Exception):
    pass


class _Deadline:
    def __init__(self, expires: float):
        self.expires = expires

    def check(self) -> None:
        if time.monotonic() > self.expires:
            raise _Timeout


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _orbits(masks: list[int], a: int, b: int) -> list[int]:
    """orbit[v]: the bitset of v's orbit under the permutations of [n] that
    fix the sets a and b setwise.

    Those permutations are the ones that map each of a&b, a-b, b-a and the
    rest onto itself, so an r-set's orbit is fixed by how many elements it
    takes from each part, which (|u&a|, |u&b|, |u&a&b|) and r determine.
    With b = a the orbits are the classes of |u&a|.
    """
    keys = [((m & a).bit_count(), (m & b).bit_count(), (m & a & b).bit_count())
            for m in masks]
    classes: dict[tuple[int, int, int], int] = {}
    for v, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << v
    return [classes[key] for key in keys]


def _relation_bitsets(masks: list[int], sizes: Iterable[int]) -> list[int]:
    """related[i]: the bitset of the j with |masks[i] & masks[j]| in `sizes`;
    sizes below r leave out i itself.

    Bit-parallel (as BBMC): contains[x] holds the vertices containing element
    x, and a bit-sliced counter adds the r of them belonging to one vertex u,
    so bit j of slice k is binary digit k of |u & masks[j]| for every j at
    once. Each allowed size then selects the bits whose digits spell it.
    """
    contains = [0] * max(masks).bit_length()
    for v, m in enumerate(masks):
        for x in _bits(m):
            contains[x] |= 1 << v
    full = (1 << len(masks)) - 1
    depth = masks[0].bit_count().bit_length()
    related = []
    for m in masks:
        count = [0] * depth
        for x in _bits(m):
            carry = contains[x]
            for k in range(depth):
                count[k], carry = count[k] ^ carry, count[k] & carry
                if not carry:
                    break
        row = 0
        for size in sizes:
            equal = full
            for k, digit in enumerate(count):
                equal &= digit if size >> k & 1 else ~digit
            row |= equal
        related.append(row)
    return related


# --- threshold predictions (exact integer arithmetic) --------------------


def threshold_predictions(r: int, t: int) -> int | None:
    """Forced 2-packing number of K(3r-t, r), or None outside both ranges.

    Returns 3 when t <= (r+5)/5 and 4 when (r+5)/5 < t <= (2r+9)/9; the
    comparisons use integer cross-multiplication.
    """
    if not 2 <= t <= r - 1:
        raise ParameterError(f"need 2 <= t <= r-1, got r={r}, t={t}")
    if 5 * t <= r + 5:
        return 3
    if 9 * t <= 2 * r + 9:
        return 4
    return None


def threshold_prediction_by_n(n: int, r: int) -> int | None:
    """The same thresholds stated on n = 3r-t, or None outside the band
    2r+1 <= n <= 3r-2: 3 when (14/5)r-1 <= n, 4 when (25/9)r-1 <= n <
    (14/5)r-1."""
    if not 2 * r + 1 <= n <= 3 * r - 2:
        return None
    return threshold_predictions(r, 3 * r - n)


# --- exact domination solver ---------------------------------------------


class _DominationSearch:
    """Branch and bound for a k-dominating / k-tuple (total) set of fixed size.

    d[u] is u's deficit, the demand left after the chosen vertices, and
    `needy` the bitset of the u with d[u] > 0. Choosing v removes
    (nbr[v] & needy).bit_count() + min(credit, d[v]) deficit units, its gain.
    """

    def __init__(self, masks, kind, k, deadline):
        self.masks = masks
        self.nbr = nbr = _relation_bitsets(masks, (0,))
        self.k = k
        self.credit = self_credit(kind, k)
        self.deadline = deadline
        self.V = len(nbr)
        self.nodes = 0
        degree = nbr[0].bit_count() if nbr else 0  # Kneser graphs are regular
        self.max_gain = degree + self.credit
        # helpers[u]: vertices whose selection raises u's coverage
        own = 1 if self.credit else 0
        self.helpers = [nbr[u] | own << u for u in range(self.V)]

    def _gains(self, excluded: int) -> list[int]:
        """gains[v]: v's gain in the current state, 0 for v in `excluded`."""
        nbr, needy, d, credit = self.nbr, self.needy, self.deficits, self.credit
        count = int.bit_count  # popcount, bound once for this hot loop
        return [0 if excluded >> v & 1
                else count(nbr[v] & needy) + (d[v] if d[v] < credit else credit)
                for v in range(self.V)]

    def _gain_bound(self, remaining: int, banned: int) -> int:
        """The sum of the `remaining` largest gains of the free vertices (not
        chosen, not banned): at least the deficit any `remaining` of them
        remove together, since no gain rises as vertices are chosen."""
        gains = self._gains(self.chosen_bits | banned)
        gains.sort(reverse=True)
        return sum(gains[:remaining])

    def _reset(self) -> None:
        self.deficits = [self.k] * self.V
        self.total = self.k * self.V
        self.needy = (1 << self.V) - 1
        self.chosen_bits = 0
        self.chosen: list[int] = []

    def greedy(self) -> list[int]:
        """Max-coverage greedy solution; used as the deepening upper bound.

        Each step takes the first vertex of largest gain."""
        self._reset()
        while self.total > 0:
            gains = self._gains(self.chosen_bits)
            best_gain = max(gains)
            internal_check(best_gain > 0, "greedy stalled on a defined instance")
            self._choose(gains.index(best_gain))
        return list(self.chosen)

    def find(self, size: int, symmetry: bool) -> list[int] | None:
        """A valid family of exactly `size` vertices, or None if none exists.

        With symmetry breaking the family contains the colex-first vertex v0,
        as the symmetric group acts vertex-transitively. The next level
        branches over the helpers of a target t, and a failed branch on v
        there excludes v's whole orbit under the permutations fixing v0 and
        t (orbital branching): any family with a member in that orbit maps
        to one containing v0 and v that avoids everything excluded before,
        since those exclusions are unions of orbits too.
        """
        self._reset()
        if symmetry and size >= 1:
            self._choose(0)
            return self._dfs(size - 1, banned=0, orbital=True)
        return self._dfs(size, banned=0)

    def _choose(self, v: int) -> list[tuple[int, int]]:
        log = []
        d = self.deficits
        take = min(self.credit, d[v])
        if take:
            log.append((v, take))
            d[v] -= take
            self.total -= take
        cleared = 0 if d[v] else 1 << v
        hit = self.nbr[v] & self.needy
        for u in _bits(hit):
            log.append((u, 1))
            d[u] -= 1
            if not d[u]:
                cleared |= 1 << u
        self.total -= hit.bit_count()
        self.needy &= ~cleared
        self.chosen_bits |= 1 << v
        self.chosen.append(v)
        return log

    def _unchoose_log(self, v: int, log: list[tuple[int, int]]) -> None:
        d = self.deficits
        for u, amount in log:
            if not d[u]:
                self.needy |= 1 << u
            d[u] += amount
            self.total += amount
        self.chosen_bits &= ~(1 << v)
        self.chosen.pop()

    def _dfs(self, remaining: int, banned: int,
             orbital: bool = False) -> list[int] | None:
        """Extend the chosen vertices by at most `remaining` more, none of
        them banned, to a valid family, or return None.

        Sorted-gain bound: a node whose deficit total exceeds `_gain_bound`
        is cut; remaining * max_gain, which bounds that sum, is tested first
        as it costs O(1). A cut subtree holds no solution, so the search
        finds the same first family as without the bound.
        """
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.deadline.check()
        if self.total == 0:
            return list(self.chosen)
        if remaining == 0:
            return None
        if self.total > remaining * self.max_gain:
            return None
        if self._gain_bound(remaining, banned) < self.total:
            return None
        # branch on the vertex with the largest remaining demand
        target, best_d = -1, 0
        d = self.deficits
        for u in range(self.V):
            if d[u] > best_d:
                target, best_d = u, d[u]
        avail = self.helpers[target] & ~self.chosen_bits & ~banned
        supply = (avail & ~(1 << target)).bit_count()
        if avail >> target & 1:
            supply += min(self.credit, best_d)
        if supply < best_d:
            return None
        orbit = (_orbits(self.masks, self.masks[0], self.masks[target])
                 if orbital else None)
        for v in _bits(avail):
            if banned >> v & 1:
                continue  # in the orbit of a vertex already branched on
            log = self._choose(v)
            result = self._dfs(remaining - 1, banned)
            self._unchoose_log(v, log)
            if result is not None:
                return result
            banned |= orbit[v] if orbit else 1 << v
        return None


def _to_family(params: KneserParams, masks: list[int], indices) -> VertexFamily:
    return VertexFamily(params, tuple(sorted(Vertex(masks[i]) for i in indices)))


def _theorem_bound(params: KneserParams,
                   k: int) -> tuple[int, VertexFamily | None]:
    """Lower bound for every domination kind, and a clique attaining it.

    For k, r >= 2 the paper proves gamma_k = k+r when n >= r(k+r), attained
    by a clique, and gamma_k >= k+r+1 when k+2r <= n < r(k+r). Both bound
    gamma_xk and gamma_xkt too, as gamma_k <= gamma_xk <= gamma_xkt.
    K(n,1) is complete with gamma_k = k < k+r, so r = 1 gets no bound.
    """
    n, r = params.n, params.r
    if k < 2 or r < 2 or n < k + 2 * r:
        return 1, None
    if n >= r * (k + r):
        return k + r, disjoint_clique(k, r, n)
    return k + r + 1, None


def solve_domination(
    params: KneserParams,
    kind: InvariantKind,
    k: int,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Exact k-domination / k-tuple / k-tuple total domination number.

    For k, r >= 2 and n >= r(k+r) the theorem bound and its clique close the
    instance before any graph is built. Otherwise iterative deepening from
    the theorem bound, branch and bound with coverage deficits, first branch
    vertex fixed to [1..r] by vertex-transitivity. On timeout the bracket
    reached so far is returned, with the greedy family as its upper bound.
    """
    if kind is InvariantKind.TWO_PACKING:
        raise ParameterError("use solve_rho2 for the 2-packing number")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    if not is_defined(params, kind, k):
        return SolveResult(None, None, wall_time=time.monotonic() - start)
    lb, witness = _theorem_bound(params, k)
    nodes = 0
    if witness is not None:
        # the theorem's optimum is a clique: guard disjoint_clique's blocks
        internal_check(
            all(u.mask & v.mask == 0
                for u, v in combinations(witness.members, 2)),
            "disjoint_clique returned a family that is not a clique",
        )
    else:
        masks = list(params.vertex_masks())
        search = _DominationSearch(masks, kind, k,
                                   _Deadline(start + cfg.timeout))
        best = search.greedy()
        internal_check(lb <= len(best),
                       "theorem lower bound exceeds a constructed family")
        try:
            for s in range(lb, len(best)):
                found = search.find(s, cfg.symmetry_breaking)
                if found is not None:
                    best = found
                    break
                lb = s + 1
        except _Timeout:
            pass
        witness = _to_family(params, masks, best)
        nodes = search.nodes
    return _certified(witness, verify(witness, kind, k),
                      lb, len(witness), nodes, start)


# --- brute-force oracle ---------------------------------------------------

_BRUTE_VERTEX_LIMIT = 40
_BRUTE_SIZE_LIMIT = 8


def brute_force_domination(
    params: KneserParams, kind: InvariantKind, k: int
) -> SolveResult:
    """Enumerate families by cardinality and return the first valid one.

    Independent of the branch-and-bound path: validity is decided by a plain
    double loop over vertices and members, and definability by whether the
    whole vertex set is valid, since validity is closed under supersets.
    Guarded to graphs with at most 40 vertices and optimum at most 8.
    """
    if kind is InvariantKind.TWO_PACKING:
        raise ParameterError("the oracle covers domination kinds only")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
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
    for s in range(1, min(V, _BRUTE_SIZE_LIMIT) + 1):
        for combo in combinations(range(V), s):
            checked += 1
            if valid(combo):
                witness = VertexFamily(
                    params, tuple(Vertex(masks[i]) for i in combo)
                )
                return SolveResult(s, s, witness, checked,
                                   time.monotonic() - start)
    raise CapacityError(
        f"no family of size <= {_BRUTE_SIZE_LIMIT} found; outside oracle guard"
    )


# --- 2-packing number ------------------------------------------------------


class _CliqueSearch:
    """Tomita-style maximum clique with greedy-coloring bounds."""

    def __init__(self, compat: list[int], deadline: _Deadline):
        self.compat = compat
        self.deadline = deadline
        self.nodes = 0
        # any single vertex is a 2-packing
        self.best = 1
        self.best_clique = [0]

    def color_order(self, p_mask: int,
                    kmin: int = 1) -> tuple[list[int], list[int]]:
        """Class-by-class greedy coloring: the vertices of color >= kmin in
        coloring order, and their 1-based colors.

        Every class is built, but the lower ones are not emitted: `expand`
        stops at the first vertex whose color cannot beat the incumbent.
        """
        order: list[int] = []
        colors: list[int] = []
        color = 0
        while p_mask:
            color += 1
            q = p_mask
            if color < kmin:
                while q:
                    low = q & -q
                    p_mask ^= low
                    q &= ~(self.compat[low.bit_length() - 1] | low)
                continue
            while q:
                low = q & -q
                v = low.bit_length() - 1
                order.append(v)
                colors.append(color)
                p_mask ^= low
                q &= ~(self.compat[v] | low)
        return order, colors

    def expand(self, clique: list[int], p_mask: int,
               orbit: list[int] | None = None) -> None:
        """Extend `clique` by the candidates `p_mask`. With `orbit`, a branch
        on v, once done, excludes v's whole orbit, not only v."""
        self.nodes += 1
        if self.nodes % 256 == 0:
            self.deadline.check()
        if len(clique) > self.best:
            self.best = len(clique)
            self.best_clique = list(clique)
        order, colors = self.color_order(p_mask, self.best - len(clique) + 1)
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if len(clique) + colors[idx] <= self.best:
                return
            if not p_mask >> v & 1:
                # excluded with an orbit; the colors still bound the rest
                continue
            clique.append(v)
            self.expand(clique, p_mask & self.compat[v])
            clique.pop()
            p_mask &= ~orbit[v] if orbit else ~(1 << v)


def solve_rho2(params: KneserParams, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact 2-packing number of K(n,r).

    When no intersection size puts two vertices at distance >= 3 (n >= 3r-1,
    diameter 2) the answer is 1. Inside the band 2r+1 <= n <= 3r-2 the
    occurrence-counting bound forces the value to 3 or 4 in the threshold
    ranges, with the explicit three- and four-vertex witnesses; these
    instances close without search. Everything else runs maximum-clique
    branch and bound on the compatibility graph, bounded above by the greedy
    coloring at the root. With symmetry breaking the root is the clique
    [v0], and its branch on a candidate v, once done, excludes every
    candidate with the same intersection size with v0 as v: the
    permutations fixing v0 map any packing through one of them to a packing
    through v. On timeout the bracket from the largest packing found to that
    coloring bound is returned.
    """
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    n, r = params.n, params.r

    sizes = packing_intersections(params)
    if not sizes:
        witness = VertexFamily(params, (Vertex((1 << r) - 1),))
        return _certified(witness, verify_2_packing(witness), 1, 1, 0, start)

    predicted = threshold_prediction_by_n(n, r)
    if predicted is not None:
        t = 3 * r - n
        witness = rho3_witness(r, t) if predicted == 3 else rho4_witness(r, t)
        return _certified(witness, verify_2_packing(witness),
                          predicted, predicted, 0, start)

    masks = list(params.vertex_masks())
    compat = _relation_bitsets(masks, sizes)
    search = _CliqueSearch(compat, _Deadline(start + cfg.timeout))

    # Any maximum 2-packing maps, by vertex-transitivity, to one containing
    # the colex-first vertex, so search only extensions of it.
    if cfg.symmetry_breaking:
        root, root_p = [0], compat[0]
        orbit = _orbits(masks, masks[0], masks[0])
    else:
        root, root_p, orbit = [], (1 << len(masks)) - 1, None
    _, root_colors = search.color_order(root_p)
    upper = len(root) + (root_colors[-1] if root_colors else 0)
    try:
        search.expand(root, root_p, orbit)
        upper = search.best  # the search is exhaustive
    except _Timeout:
        pass
    witness = _to_family(params, masks, search.best_clique)
    return _certified(witness, verify_2_packing(witness), search.best, upper,
                      search.nodes, start)
