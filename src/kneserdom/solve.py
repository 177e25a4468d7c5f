"""Exact solvers for domination invariants and the 2-packing number.

Domination numbers are computed by iterative deepening with branch and bound
over vertex subsets; the 2-packing number by maximum-clique branch and bound
on the pairwise-compatibility graph (pairs at distance >= 3), with closed-form
shortcuts where the value is forced: diameter-2 graphs, and the threshold
ranges where counting the occurrences of elements in a normalized packing
pins the value to 3 or 4.

A slow brute-force oracle is provided for cross-validation at tiny sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .certify import (
    InvariantKind,
    is_defined,
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
    popcount,
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
    vertex_ceiling: int | None = None

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # also rejects NaN, which never expires
            raise ParameterError(f"timeout must be positive, got {self.timeout}")


@dataclass
class SolveResult:
    value: int | None
    witness: VertexFamily | None
    status: SolveStatus
    lower_bound: int | None = None
    upper_bound: int | None = None
    nodes: int = 0
    wall_time: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


class _Timeout(Exception):
    pass


class _Deadline:
    def __init__(self, seconds: float):
        self.expires = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self.expires:
            raise _Timeout


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    """The same thresholds stated on n: 3 when (14/5)r-1 <= n <= 3r-2,
    4 when (25/9)r-1 <= n < (14/5)r-1."""
    if 14 * r - 5 <= 5 * n and n <= 3 * r - 2:
        return 3
    if 25 * r - 9 <= 9 * n and 5 * n < 14 * r - 5:
        return 4
    return None


# --- exact domination solver ---------------------------------------------


def _neighbor_bitsets(masks: list[int]) -> list[int]:
    V = len(masks)
    nbr = [0] * V
    for i in range(V):
        mi = masks[i]
        for j in range(i + 1, V):
            if mi & masks[j] == 0:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return nbr


class _DominationSearch:
    """Branch and bound for a k-dominating / k-tuple (total) set of fixed size."""

    def __init__(self, nbr, kind, k, deadline):
        self.nbr = nbr
        self.k = k
        self.credit = self_credit(kind, k)
        self.deadline = deadline
        self.V = len(nbr)
        self.nodes = 0
        degree = popcount(nbr[0]) if nbr else 0  # Kneser graphs are regular
        self.max_gain = degree + self.credit
        # helpers[u]: vertices whose selection raises u's coverage
        own = 1 if self.credit else 0
        self.helpers = [nbr[u] | own << u for u in range(self.V)]

    def _gain(self, v: int) -> int:
        """Deficit units removed by selecting v in the current state."""
        d = self.deficits
        gain = min(self.credit, d[v])
        for u in _bits(self.nbr[v]):
            if d[u] > 0:
                gain += 1
        return gain

    def _reset(self) -> None:
        self.deficits = [self.k] * self.V
        self.total = self.k * self.V
        self.chosen_bits = 0
        self.chosen: list[int] = []

    def greedy(self) -> list[int]:
        """Max-coverage greedy solution; used as the deepening upper bound."""
        self._reset()
        while self.total > 0:
            best_v, best_gain = -1, 0
            for v in range(self.V):
                if self.chosen_bits >> v & 1:
                    continue
                gain = self._gain(v)
                if gain > best_gain:
                    best_v, best_gain = v, gain
            internal_check(best_v >= 0, "greedy stalled on a defined instance")
            self._choose(best_v)
        return list(self.chosen)

    def find(self, size: int, symmetry: bool) -> list[int] | None:
        """A valid family of exactly `size` vertices, or None if none exists."""
        self._reset()
        if symmetry and size >= 1:
            # The symmetric group acts vertex-transitively, so some optimal
            # family contains the colex-first vertex.
            self._choose(0)
            return self._dfs(size - 1, banned=0)
        return self._dfs(size, banned=0)

    def _choose(self, v: int) -> list[tuple[int, int]]:
        log = []
        d = self.deficits
        take = min(self.credit, d[v])
        if take:
            log.append((v, take))
            d[v] -= take
            self.total -= take
        for u in _bits(self.nbr[v]):
            if d[u] > 0:
                log.append((u, 1))
                d[u] -= 1
                self.total -= 1
        self.chosen_bits |= 1 << v
        self.chosen.append(v)
        return log

    def _unchoose_log(self, v: int, log: list[tuple[int, int]]) -> None:
        for u, amount in log:
            self.deficits[u] += amount
            self.total += amount
        self.chosen_bits &= ~(1 << v)
        self.chosen.pop()

    def _dfs(self, remaining: int, banned: int) -> list[int] | None:
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.deadline.check()
        if self.total == 0:
            return list(self.chosen)
        if remaining == 0:
            return None
        if self.total > remaining * self.max_gain:
            return None
        # branch on the vertex with the largest remaining demand
        target, best_d = -1, 0
        d = self.deficits
        for u in range(self.V):
            if d[u] > best_d:
                target, best_d = u, d[u]
        avail = self.helpers[target] & ~self.chosen_bits & ~banned
        supply = popcount(avail & ~(1 << target))
        if avail >> target & 1:
            supply += min(self.credit, best_d)
        if supply < best_d:
            return None
        for v in _bits(avail):
            log = self._choose(v)
            result = self._dfs(remaining - 1, banned)
            self._unchoose_log(v, log)
            if result is not None:
                return result
            banned |= 1 << v
        return None


def _to_family(params: KneserParams, masks: list[int], indices) -> VertexFamily:
    return VertexFamily(params, tuple(sorted(Vertex(masks[i]) for i in indices)))


def _seed_lower_bound(params: KneserParams, kind: InvariantKind, k: int) -> int:
    n, r = params.n, params.r
    if kind is InvariantKind.K_DOMINATION and k >= 2 and n >= k + 2 * r:
        return k + r if n >= r * (k + r) else k + r + 1
    return 1


def solve_domination(
    params: KneserParams,
    kind: InvariantKind,
    k: int,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Exact k-domination / k-tuple / k-tuple total domination number.

    Iterative deepening on the target size, branch and bound with coverage
    deficits, first branch vertex fixed to [1..r] by vertex-transitivity.
    On timeout the tightest (lower, upper) bracket found is returned.
    """
    if kind is InvariantKind.TWO_PACKING:
        raise ParameterError("use solve_rho2 for the 2-packing number")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    if not is_defined(params, kind, k):
        return SolveResult(None, None, SolveStatus.UNDEFINED,
                           wall_time=time.monotonic() - start)
    params.check_capacity(cfg.vertex_ceiling)
    masks = list(params.vertex_masks())
    nbr = _neighbor_bitsets(masks)
    deadline = _Deadline(cfg.timeout)

    search = _DominationSearch(nbr, kind, k, deadline)
    greedy_idx = search.greedy()
    ub = len(greedy_idx)
    lb = _seed_lower_bound(params, kind, k)
    internal_check(lb <= ub, "theorem lower bound exceeds a constructed family")
    best_witness = _to_family(params, masks, greedy_idx)
    if k >= 2 and params.n >= params.r * (k + params.r) and k + params.r < ub:
        # a clique of k+r disjoint blocks dominates in all three senses
        clique = disjoint_clique(k, params.r, params.n)
        ub = k + params.r
        best_witness = clique
    value = None
    proven = lb
    try:
        for s in range(lb, ub):
            found = search.find(s, cfg.symmetry_breaking)
            if found is not None:
                value = s
                best_witness = _to_family(params, masks, found)
                break
            proven = s + 1
        else:
            value = ub
    except _Timeout:
        return SolveResult(
            None, best_witness, SolveStatus.BOUNDS,
            lower_bound=proven, upper_bound=ub,
            nodes=search.nodes, wall_time=time.monotonic() - start,
        )

    internal_check(verify(best_witness, kind, k).valid,
                   "solver produced an invalid witness")
    if k >= 2 and params.n >= params.r * (k + params.r):
        # In this regime every optimal family is a clique of disjoint sets.
        members = best_witness.members
        internal_check(
            all(u.mask & v.mask == 0
                for i, u in enumerate(members) for v in members[i + 1:]),
            "optimal witness is not a clique in the forced-clique regime",
        )
    return SolveResult(
        value, best_witness, SolveStatus.OPTIMAL,
        lower_bound=value, upper_bound=value,
        nodes=search.nodes, wall_time=time.monotonic() - start,
    )


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
        return SolveResult(None, None, SolveStatus.UNDEFINED,
                           wall_time=time.monotonic() - start)
    checked = 0
    for s in range(1, min(V, _BRUTE_SIZE_LIMIT) + 1):
        for combo in combinations(range(V), s):
            checked += 1
            if valid(combo):
                witness = VertexFamily(
                    params, tuple(Vertex(masks[i]) for i in combo)
                )
                return SolveResult(
                    s, witness, SolveStatus.OPTIMAL,
                    lower_bound=s, upper_bound=s,
                    nodes=checked, wall_time=time.monotonic() - start,
                )
    raise CapacityError(
        f"no family of size <= {_BRUTE_SIZE_LIMIT} found; outside oracle guard"
    )


# --- 2-packing number ------------------------------------------------------


def _compat_bitsets(params: KneserParams, masks: list[int]) -> list[int]:
    """Adjacency of the distance->=3 compatibility graph over the vertex list."""
    n, r = params.n, params.r
    V = len(masks)
    compat = [0] * V
    banded = 2 * r + 1 <= n <= 3 * r - 2
    cap = 3 * r - 1 - n
    for i in range(V):
        mi = masks[i]
        for j in range(i + 1, V):
            inter = popcount(mi & masks[j])
            if banded:
                ok = 1 <= inter <= cap
            else:
                union = popcount(mi | masks[j])
                ok = inter > 0 and n - union < r
            if ok:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


class _CliqueSearch:
    """Tomita-style maximum clique with greedy-coloring bounds."""

    def __init__(self, compat: list[int], deadline: _Deadline):
        self.compat = compat
        self.deadline = deadline
        self.nodes = 0
        self.best = 0
        self.best_clique: list[int] = []

    def color_order(self, p_mask: int) -> tuple[list[int], list[int]]:
        """Greedy coloring: vertex order and matching color numbers (1-based)."""
        order: list[int] = []
        colors: list[int] = []
        classes: list[int] = []
        for v in _bits(p_mask):
            for ci, cls in enumerate(classes):
                if cls & self.compat[v] == 0:
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        for ci, cls in enumerate(classes, start=1):
            for v in _bits(cls):
                order.append(v)
                colors.append(ci)
        return order, colors

    def expand(self, clique: list[int], p_mask: int) -> None:
        self.nodes += 1
        if self.nodes % 256 == 0:
            self.deadline.check()
        if len(clique) > self.best:
            self.best = len(clique)
            self.best_clique = list(clique)
        order, colors = self.color_order(p_mask)
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if len(clique) + colors[idx] <= self.best:
                return
            clique.append(v)
            self.expand(clique, p_mask & self.compat[v])
            clique.pop()
            p_mask &= ~(1 << v)


def solve_rho2(params: KneserParams, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact 2-packing number of K(n,r).

    For n >= 3r-1 the graph has diameter 2 and the answer is 1. Inside the
    band 2r+1 <= n <= 3r-2 the occurrence-counting bound forces the value to
    3 or 4 in the threshold ranges, with the explicit three- and four-vertex
    witnesses; these instances close without search. Everything else runs
    maximum-clique branch and bound on the compatibility graph.
    """
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    n, r = params.n, params.r

    if n >= 3 * r - 1:
        witness = VertexFamily(params, (Vertex((1 << r) - 1),))
        return SolveResult(1, witness, SolveStatus.OPTIMAL,
                           lower_bound=1, upper_bound=1,
                           wall_time=time.monotonic() - start)

    if 2 * r + 1 <= n <= 3 * r - 2:
        t = 3 * r - n
        predicted = threshold_predictions(r, t)
        if predicted is not None:
            witness = rho3_witness(r, t) if predicted == 3 else rho4_witness(r, t)
            internal_check(verify_2_packing(witness).valid,
                           "threshold witness is not a 2-packing")
            return SolveResult(
                predicted, witness, SolveStatus.OPTIMAL,
                lower_bound=predicted, upper_bound=predicted,
                wall_time=time.monotonic() - start,
            )

    params.check_capacity(cfg.vertex_ceiling)
    masks = list(params.vertex_masks())
    compat = _compat_bitsets(params, masks)
    deadline = _Deadline(cfg.timeout)
    search = _CliqueSearch(compat, deadline)
    search.best = 1
    search.best_clique = [0]

    # Any maximum 2-packing maps, by vertex-transitivity, to one containing
    # the colex-first vertex, so search only extensions of it.
    root_p = compat[0] if cfg.symmetry_breaking else (1 << len(masks)) - 1
    _, root_colors = search.color_order(root_p)
    upper = (1 if cfg.symmetry_breaking else 0) + (
        max(root_colors) if root_colors else 0
    )
    try:
        if cfg.symmetry_breaking:
            search.expand([0], root_p)
        else:
            search.expand([], root_p)
    except _Timeout:
        return SolveResult(
            None, _to_family(params, masks, search.best_clique),
            SolveStatus.BOUNDS,
            lower_bound=search.best, upper_bound=max(upper, search.best),
            nodes=search.nodes, wall_time=time.monotonic() - start,
        )
    witness = _to_family(params, masks, search.best_clique)
    internal_check(verify_2_packing(witness).valid,
                   "clique search produced an invalid 2-packing")
    return SolveResult(
        search.best, witness, SolveStatus.OPTIMAL,
        lower_bound=search.best, upper_bound=search.best,
        nodes=search.nodes, wall_time=time.monotonic() - start,
    )
