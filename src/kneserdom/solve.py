"""Exact solvers for domination invariants and the 2-packing number.

Domination numbers close by the theorem bound and a disjoint clique when
n >= r(k+r), and otherwise by iterative deepening with branch and bound over
vertex subsets, strictly between two root bounds. Below is the larger of the
theorem bound and the counting bound ceil(kV / (degree + self-credit));
above is the greedy family, shrunk by a seeded tabu swap search with a fixed
move budget per size. Where they meet the instance closes with no search
node. Greedy, local search and branch and bound share one coverage state,
which only choosing or dropping one vertex changes. The search cuts a node
when the largest gains (deficit removed per vertex) of as many free vertices
as may still be chosen cannot cover the deficit left, or when some vertex's
free helpers cannot cover its own deficit (negative slack), and otherwise
branches over the helpers of the vertex with the least slack. The 2-packing
number closes by maximum-clique branch and bound on the
pairwise-compatibility graph (pairs at distance >= 3), bounded at each node
by a greedy coloring tightened by the infra-chromatic rule, with closed-form
shortcuts where the value is forced: diameter-2 graphs, the perfect matching
K(2r,r), and the threshold ranges where counting the occurrences of elements
in a normalized packing pins the value to 3 or 4. Elsewhere in the band
2r+1 <= n <= 3r-2 the floor of Delsarte's LP over the Johnson scheme, solved
exactly on a fraction-free integer tableau and proved by a dual vector that
`certify` checks, bounds the clique search, or closes the instance when a
recorded packing meets it. On the paper's boundary row n = r(k+r)-1 the
domination numbers close by the theorem bound k+r+1 and the
`gamma_kt_boundary` family.

Both graphs relate two vertices by the size of their intersection: 0 for
K(n,r) itself, `packing_intersections` for the compatibility graph. One
bit-sliced counter (`_slices`) gives every vertex's intersection size with a
set of elements at once; the build (`_relation_bitsets`) makes either graph
from it, and both searches key their orbits with it.

With symmetry breaking both searches fix the colex-first vertex v0, as the
symmetric group acts vertex-transitively, and branch on one vertex per orbit
of the permutations fixing what is already chosen (orbital branching): the
domination search at the level after v0, the clique search at every clique
of at most four members. The orbits come from intersection sizes with the
Venn atoms of the fixed sets, counted for all candidates at once. The clique
search carries them down the clique: a child refines its parent's classes,
cut down to its own candidates, by the counts in the new member's parts
alone (`_refine`), and a clique whose classes are all single vertices keys
nothing below it.

A solver's budget counts from the start of the solve, graph build included,
and is checked at every node of both searches, at every move of the
domination local search, and every 64 rows of the compatibility graph's
build, which on expiry leaves the bracket [1, LP floor]. The domination
graph's build is not checked, as the greedy family, the upper bound a
domination bracket falls back on, needs the whole graph; that graph is held
once, as one neighbour bitset per vertex. Every result with a witness leaves
through `_certified`.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, Iterator
from enum import Enum
from math import comb, floor, gcd, lcm
from typing import TYPE_CHECKING

from .certify import (
    InvariantKind,
    check_delsarte_dual,
    is_defined,
    packing_intersections,
    self_credit,
    verify,
    verify_2_packing,
)
from .core import (
    KneserParams,
    ParameterError,
    Record,
    Vertex,
    VertexFamily,
    internal_check,
)
from .construct import (
    TABLE3_PACKINGS,
    disjoint_clique,
    gamma_kt_boundary,
    rho3_witness,
    rho4_witness,
    table3_packing,
)

if TYPE_CHECKING:
    from fractions import Fraction


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    BOUNDS = "bounds"
    UNDEFINED = "undefined"


class SolverConfig(Record):
    __slots__ = ("timeout", "symmetry_breaking")

    def __init__(self, timeout: float = 60.0,
                 symmetry_breaking: bool = True) -> None:
        # an int or a float: True is an int but no budget, and a str or
        # None would fail at the first deadline check
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise ParameterError(
                f"timeout must be a number of seconds, got {timeout!r}")
        if not timeout > 0:  # also rejects NaN, which never expires
            raise ParameterError(f"timeout must be positive, got {timeout}")
        # None or 0 would turn orbital branching off and "no" would keep it
        if type(symmetry_breaking) is not bool:
            raise ParameterError(
                f"symmetry_breaking must be a bool, got {symmetry_breaking!r}")
        self._set_fields(timeout, symmetry_breaking)


class SolveResult(Record):
    """The bracket a solver proved, the witness it found, and its effort.

    A lower bound of None marks an undefined invariant; a closed bracket is
    the optimum; an open one is what a deadline left.
    """

    __slots__ = ("lower_bound", "upper_bound", "witness", "nodes", "wall_time")

    # a result is mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, lower_bound: int | None, upper_bound: int | None,
                 witness: VertexFamily | None = None, nodes: int = 0,
                 wall_time: float = 0.0) -> None:
        self._set_fields(lower_bound, upper_bound, witness, nodes, wall_time)

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


def _certified(witness: VertexFamily, kind: InvariantKind, k: int, bound: int,
               nodes: int, start: float) -> SolveResult:
    """The one exit of every solver result that carries a witness.

    A result is the bracket [lower_bound, upper_bound] the solver proved,
    and its status and value follow from that bracket. The witness attains
    one end: its size is the upper end for domination and the lower end for
    the 2-packing number. `bound` is the other end, the one the solver
    proved by theorem, counting, LP or exhaustive search. The bracket must
    not cross, and the witness must pass its verifier, whether the bracket
    closed or a deadline stopped the search.
    """
    packing = kind is InvariantKind.TWO_PACKING
    lb, ub = (len(witness), bound) if packing else (bound, len(witness))
    internal_check(lb <= ub, "lower bound exceeds upper bound")
    report = verify_2_packing(witness) if packing else verify(witness, kind, k)
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


def _containers(masks: list[int]) -> list[int]:
    """contains[x]: the bitset of the vertices whose mask holds element x."""
    contains = [0] * max(masks).bit_length()
    for v, m in enumerate(masks):
        for x in _bits(m):
            contains[x] |= 1 << v
    return contains


def _slices(contains: list[int], elements: Iterable[int]) -> list[int]:
    """The bit-sliced count of `elements` in every vertex at once (as BBMC):
    bit v of slice k is binary digit k of how many of the elements vertex v
    holds. Each element adds its `contains` bitset with a ripple carry."""
    count: list[int] = []
    for x in elements:
        carry = contains[x]
        for k, digit in enumerate(count):
            count[k], carry = digit ^ carry, digit & carry
            if not carry:
                break
        else:
            if carry:
                count.append(carry)
    return count


def _refine(contains: list[int], classes: list[int], atoms: list[int],
            member: int, among: int) -> tuple[list[int], list[int]]:
    """One step of orbit keying: the orbit classes and Venn atoms once
    `member` is fixed too, the classes cut down to the bitset `among`.

    The permutations of [n] fixing some sets setwise are the ones mapping
    each Venn atom of the sets onto itself, so an r-set's orbit is fixed by
    how many elements it takes from each atom; r fixes its count in the
    atom outside every set, which `atoms` leaves out. `classes` are the
    orbits of the sets fixed so far that hold two vertices or more, and
    `atoms` their Venn atoms. Fixing `member` splits each atom A into
    A & member and A - member and adds the part of `member` outside every
    atom. A vertex's count in A - member is its count in A, the same across
    its class, less its count in A & member, so a class splits only by its
    counts in the parts of `member`: each A & member and the part outside,
    r elements in all. Each part splits the classes on every binary digit of
    its count (`_slices`), all vertices at once. Classes of one vertex are
    dropped, and once none is left the atoms are not worked out.
    """
    classes = [part for cls in classes if (part := cls & among) & (part - 1)]
    if not classes:
        return [], []
    outside = member
    parts, split = [], []
    for atom in atoms:
        outside &= ~atom
        if atom & member:
            parts.append(atom & member)
        split += [piece for piece in (atom & member, atom & ~member) if piece]
    if outside:
        parts.append(outside)
        split.append(outside)
    for part in parts:
        for digit in _slices(contains, _bits(part)):
            classes = [piece for cls in classes
                       for piece in (cls & digit, cls & ~digit)
                       if piece & (piece - 1)]
        if not classes:
            return [], []
    return classes, split


def _orbits(contains: list[int], sets: list[int], among: int) -> list[int]:
    """The orbits within the bitset `among` of the permutations of [n] that
    fix each set in `sets` setwise, those of two vertices or more: the
    `_refine` step folded over `sets`. `_orbit` looks a vertex's up."""
    classes, atoms = [among], []
    for member in sets:
        classes, atoms = _refine(contains, classes, atoms, member, among)
    return classes


def _orbit(classes: list[int], v: int) -> int:
    """The class of `classes` that holds v, or v alone if none does."""
    for cls in classes:
        if cls >> v & 1:
            return cls
    return 1 << v


def _relation_bitsets(masks: list[int], contains: list[int],
                      sizes: Iterable[int],
                      deadline: _Deadline | None = None) -> list[int]:
    """related[i]: the bitset of the j with |masks[i] & masks[j]| in `sizes`;
    sizes below r leave out i itself. `contains` is `_containers(masks)`.

    Bit-parallel: the `_slices` of masks[i]'s elements hold |masks[i] &
    masks[j]| for every j at once, and each allowed size selects the bits
    whose digits spell it; masks[i] meets itself in all r elements, so the
    slices spell every size up to r. A `deadline` is checked every 64 rows,
    the first row included.
    """
    full = (1 << len(masks)) - 1
    related = []
    for i, m in enumerate(masks):
        if deadline and i % 64 == 0:
            deadline.check()
        count = _slices(contains, _bits(m))
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
    comparisons use integer cross-multiplication. Stated on n = 3r-t inside
    the band 2r+1 <= n <= 3r-2: 3 when (14/5)r-1 <= n, and 4 when
    (25/9)r-1 <= n < (14/5)r-1.
    """
    if not 2 <= t <= r - 1:
        raise ParameterError(f"need 2 <= t <= r-1, got r={r}, t={t}")
    if 5 * t <= r + 5:
        return 3
    if 9 * t <= 2 * r + 9:
        return 4
    return None


# --- Delsarte's linear programming bound (exact rational arithmetic) -----


def _eberlein(n: int, r: int, d: int, k: int) -> int:
    """E_d(k): the eigenvalue of the distance-d relation of the Johnson
    scheme J(n,r) on its k-th eigenspace."""
    return sum((-1) ** j * comb(k, j) * comb(r - k, d - j)
               * comb(n - r - k, d - j) for j in range(min(k, d) + 1))


def delsarte_lp(n: int, r: int) -> tuple[Fraction, list[Fraction]]:
    """Delsarte's LP bound on the 2-packings of K(n,r) inside the band
    2r+1 <= n <= 3r-2, and the dual vector y that proves it.

    A 2-packing is a code of J(n,r) whose Johnson distances r - |u ∩ v| lie
    in D = {r-cap, ..., r-1}, cap = 3r-1-n. Its distance distribution a
    satisfies 1 + sum_d a_d E_d(k)/(C(r,d) C(n-r,d)) >= 0 for k = 1..r, so
    its size 1 + sum_d a_d is at most the LP's maximum. The primal simplex
    starts at a = 0, which is feasible since every right-hand side is 1, and
    pivots by Bland's rule, which cannot cycle. At the optimum the slack
    columns of the objective row hold y, and the bound is 1 + sum(y).

    The tableau is fraction-free: each row is a positive integer multiple of
    the row of the Fraction tableau, made by clearing denominators, kept so
    by pivoting row <- p * row - row[e] * pivot, p = pivot[e] > 0, and then
    divided by its gcd. A positive multiple keeps the signs that choose the
    entering column and the ratios that choose the leaving row, so the
    pivots are those of the Fraction tableau. The objective row carries one
    more column, the objective's own, which holds its multiple; Fractions are
    built only for the ratio test and for the bound and dual returned.
    """
    from fractions import Fraction  # loads decimal: only the LP pays for it
    cap = 3 * r - 1 - n
    dists = range(r - cap, r)
    width = cap + r  # the a_d columns, then one slack column per k
    sizes = [comb(r, d) * comb(n - r, d) for d in dists]
    scale = lcm(*sizes)
    rows = [[-_eberlein(n, r, d, k) * (scale // size)
             for d, size in zip(dists, sizes)]
            + [scale * (i == k - 1) for i in range(r)] + [0, scale]
            for k in range(1, r + 1)]
    objective = [-1] * cap + [0] * r + [1, 0]
    basis = list(range(cap, width))
    while True:
        entering = next((j for j in range(width) if objective[j] < 0), None)
        if entering is None:
            break
        candidates = [(Fraction(row[-1], row[entering]), basis[i], i)
                      for i, row in enumerate(rows) if row[entering] > 0]
        internal_check(bool(candidates), "Delsarte LP is unbounded")
        _, _, leaving = min(candidates)
        pivot = rows[leaving]
        lead = pivot[entering]
        for row in rows + [objective]:
            factor = row[entering]
            if row is not pivot and factor:
                row[:] = [lead * x - factor * p for x, p in zip(row, pivot)]
                divisor = gcd(*row)
                row[:] = [x // divisor for x in row]
        basis[leaving] = entering
    multiple = objective[width]
    return (1 + Fraction(objective[-1], multiple),
            [Fraction(y, multiple) for y in objective[cap:width]])


# --- exact domination solver ---------------------------------------------


# The local search (`_DominationSearch.shrink`) gives each size this many
# swap moves, draws its random choices from a generator seeded with
# _LOCAL_SEED, so that its families depend on neither the clock nor the
# process, and keeps a move's two vertices tabu for _TABU_TENURE moves.
# Nine instances measured: gamma_2 K(7,3), gamma_x3 K(7,3), gamma_xt1 of
# K(7,3) and K(8,3), gamma_2 of K(8,3), K(9,3) and K(9,4), and gamma_3 and
# gamma_xt3 of K(16,3). 100 moves at tenure 3 reach the value (8 on K(16,3))
# on all nine, greedy and local search in 0.04 s together from the greedy
# family down to the root lower bound (2 CPUs, Python 3.11.7, best of 7);
# 50 moves miss one, tenure 1 or 7 miss one or more, and tenure 0 misses
# five.
_LOCAL_MOVES = 100
_LOCAL_SEED = 0
_TABU_TENURE = 3


class _DominationSearch:
    """Greedy, local search and branch and bound for a k-dominating /
    k-tuple (total) family, all over one coverage state.

    cover[u] counts u's chosen neighbours, plus the self-credit if u is
    chosen. u is needy while cover[u] < k and tight while cover[u] <= k;
    `needy` and `tight` are those bitsets, `total` is the deficit left,
    the sum of max(0, k - cover[u]), and `chosen` is the family's bitset.
    `_place` is the only change to this state. A vertex's gain, the deficit
    its choice removes, is a popcount of its neighbours against `needy`
    plus `gain_own[cover[v]]`; a member's loss, the deficit its drop adds,
    is a popcount against `tight` plus `loss_own[cover[v]]`. These two
    tables, indexed by cover, are the one place the self-credit's effect is
    worked out. The local search scores its candidates with them
    (`_most_gain`, `_least_loss`). The graph is held once, as the
    neighbour bitsets `nbr`.
    """

    def __init__(self, masks, kind, k, deadline):
        self.masks = masks
        self.contains = _containers(masks)
        self.nbr = nbr = _relation_bitsets(masks, self.contains, (0,))
        self.k = k
        self.credit = credit = self_credit(kind, k)
        # the helpers of u, whose choice raises cover[u]: nbr[u] | own << u
        self.own = 1 if credit else 0
        self.deadline = deadline
        self.V = len(nbr)
        self.nodes = 0
        degree = nbr[0].bit_count() if nbr else 0  # Kneser graphs are regular
        self.max_gain = degree + credit  # also the largest cover
        # the part of v's self-credit that counts toward its own deficit when
        # v, at cover c, is chosen (gain_own[c]) or dropped (loss_own[c])
        self.gain_own = [min(credit, max(0, k - c))
                         for c in range(self.max_gain + 1)]
        self.loss_own = [min(credit, max(0, k + credit - c))
                         for c in range(self.max_gain + 1)]

    def _reset(self) -> None:
        self.cover = [0] * self.V
        self.needy = self.tight = (1 << self.V) - 1
        self.total = self.k * self.V
        self.chosen = 0

    def _place(self, v: int, step: int) -> None:
        """Choose the free vertex v (step +1) or drop the member v (step -1),
        moving `total` by v's gain or loss.

        A neighbour's cover moves by one, so it leaves or joins `needy` only
        when it lands on `edge` (k going up, k-1 going down), and `tight`
        only when it lands on edge + 1. The neighbours are the bits of
        `nbr[v]`, taken highest first, as the mask then shrinks as it goes.
        v's own cover moves by the self-credit, so its bits are compared
        before and after.
        """
        k, cover, mask = self.k, self.cover, self.nbr[v]
        before = cover[v]
        if step > 0:
            self.total -= ((mask & self.needy).bit_count()
                           + self.gain_own[before])
            edge = k
        else:
            self.total += ((mask & self.tight).bit_count()
                           + self.loss_own[before])
            edge = k - 1
        flip_needy = flip_tight = 0
        while mask:
            u = mask.bit_length() - 1
            bit = 1 << u
            mask ^= bit
            c = cover[u] = cover[u] + step
            if c == edge:
                flip_needy |= bit
            elif c == edge + 1:
                flip_tight |= bit
        after = cover[v] = before + step * self.credit
        if (before < k) != (after < k):
            flip_needy |= 1 << v
        if (before <= k) != (after <= k):
            flip_tight |= 1 << v
        self.needy ^= flip_needy
        self.tight ^= flip_tight
        self.chosen ^= 1 << v

    def _gains(self, excluded: int) -> list[int]:
        """gains[v]: the gain of v, or 0 for v in `excluded`."""
        nbr, needy, own = self.nbr, self.needy, self.gain_own
        count = int.bit_count  # popcount, bound once for this hot loop
        return [0 if excluded >> v & 1 else count(nbr[v] & needy) + own[c]
                for v, c in enumerate(self.cover)]

    def _gain_bound(self, remaining: int, banned: int) -> int:
        """The sum of the `remaining` largest gains of the free vertices (not
        chosen, not banned): at least the deficit any `remaining` of them
        remove together, since no gain rises as vertices are chosen."""
        gains = self._gains(self.chosen | banned)
        gains.sort(reverse=True)
        return sum(gains[:remaining])

    def _target(self, banned: int) -> int | None:
        """The needy vertex of least slack, the lowest on a tie, or None when
        some needy vertex has negative slack.

        slack(u) is u's supply minus its deficit k - cover[u]: its free
        neighbours, plus u's own gain `gain_own[cover[u]]` if u is free.
        Choosing every free vertex leaves u a deficit exactly when its slack
        is negative, so no extension of the current state is valid then.
        """
        free = ~(self.chosen | banned)
        k, cover, nbr, own = self.k, self.cover, self.nbr, self.gain_own
        count = int.bit_count
        target, least = None, self.V  # every slack is below V
        for u in _bits(self.needy):
            c = cover[u]
            slack = count(nbr[u] & free) - (k - c)
            if free >> u & 1:
                slack += own[c]
            if slack < 0:
                return None
            if slack < least:
                target, least = u, slack
        return target

    def greedy(self) -> list[int]:
        """Max-coverage greedy family; the local search starts from it.

        Each step chooses the first free vertex of largest gain."""
        self._reset()
        while self.total > 0:
            gains = self._gains(self.chosen)
            best_gain = max(gains)
            internal_check(best_gain > 0, "greedy stalled on a defined instance")
            self._place(gains.index(best_gain), 1)
        return list(_bits(self.chosen))

    def counting_bound(self) -> int:
        """ceil(k V / max_gain): the family must remove k V deficit units,
        and no member removes more than max_gain."""
        return -(-self.k * self.V // self.max_gain)

    def _most_gain(self, pool: int) -> int:
        """The vertex of the nonempty `pool` of free vertices with the
        largest gain, the lowest on a tie."""
        nbr, needy, cover, own = (self.nbr, self.needy, self.cover,
                                  self.gain_own)
        count = int.bit_count
        best, most = -1, -1
        while pool:
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            gain = count(nbr[v] & needy) + own[cover[v]]
            if gain > most:
                best, most = v, gain
        return best

    def _least_loss(self, pool: int) -> int:
        """The member of the nonempty `pool` with the least loss, the lowest
        on a tie."""
        nbr, tight, cover, own = (self.nbr, self.tight, self.cover,
                                  self.loss_own)
        count = int.bit_count
        best, least = -1, self.max_gain + 1  # every loss is at most max_gain
        while pool:
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            loss = count(nbr[v] & tight) + own[cover[v]]
            if loss < least:
                best, least = v, loss
        return best

    def shrink(self, family: list[int], lower: int) -> Iterator[list[int]]:
        """Yield valid families of len(family) - 1, len(family) - 2, ...
        members, none below `lower`, found by a seeded tabu swap search from
        the valid `family`.

        Each size starts from the last family yielded less its member of
        least loss, and gets _LOCAL_MOVES moves: add the free helper of
        largest gain of a random needy vertex, then drop the member of least
        loss. Both choices skip the tabu vertices, those moved in the last
        _TABU_TENURE moves of this size, unless every candidate is tabu. The
        first size left invalid ends the search. The deadline is checked
        before every move, and once per size even when its first drop leaves
        the family valid.
        """
        rng = random.Random(_LOCAL_SEED)
        self._reset()
        for v in family:
            self._place(v, 1)
        for _ in range(len(family) - 1, lower - 1, -1):
            self._place(self._least_loss(self.chosen), -1)
            recent = [0] * _TABU_TENURE  # the vertex pairs of the last moves
            frozen = 0  # the tabu vertices: the union of `recent`
            for _ in range(_LOCAL_MOVES):
                self.deadline.check()
                if not self.needy:
                    break
                u = rng.choice(list(_bits(self.needy)))
                pool = (self.nbr[u] | self.own << u) & ~self.chosen
                v = self._most_gain(pool & ~frozen or pool)
                self._place(v, 1)
                pool = self.chosen & ~(1 << v)
                w = self._least_loss(pool & ~frozen or pool)
                self._place(w, -1)
                recent.append(1 << v | 1 << w)
                del recent[0]
                frozen = 0
                for pair in recent:
                    frozen |= pair
            if self.needy:
                return
            yield list(_bits(self.chosen))

    def find(self, size: int, symmetry: bool) -> list[int] | None:
        """A valid family of exactly `size` vertices, or None if none exists.

        With symmetry breaking the family contains the colex-first vertex v0,
        as the symmetric group acts vertex-transitively. The next level
        branches over the helpers of a target t, and a failed branch on v
        there excludes v's whole orbit under the permutations fixing v0 and
        t (orbital branching): any family with a member in that orbit maps
        to one containing v0 and v that avoids everything excluded before,
        since those exclusions are unions of orbits too. Only the available
        helpers of t are keyed: an orbit lies inside t's helpers, as its
        permutations fix t, and avoids v0, the only chosen vertex there.
        """
        self._reset()
        if symmetry and size >= 1:
            self._place(0, 1)
            return self._dfs(size - 1, banned=0, orbital=True)
        return self._dfs(size, banned=0)

    def _dfs(self, remaining: int, banned: int,
             orbital: bool = False) -> list[int] | None:
        """Extend the chosen vertices by at most `remaining` more, none of
        them banned, to a valid family, or return None.

        Sorted-gain bound: a node whose deficit total exceeds `_gain_bound`
        is cut; remaining * max_gain, which bounds that sum, is tested first
        as it costs O(1). A node where some needy vertex has negative slack
        is cut too (`_target`). A cut subtree holds no solution, so the
        search finds the same first family as without the cuts. Otherwise
        the node branches over the free helpers of the needy vertex with the
        least slack (fail first), as every valid extension chooses one. The
        deadline is checked at every node, as each costs O(V) popcounts.
        """
        self.nodes += 1
        self.deadline.check()
        if self.total == 0:
            return list(_bits(self.chosen))
        if remaining == 0:
            return None
        if self.total > remaining * self.max_gain:
            return None
        if self._gain_bound(remaining, banned) < self.total:
            return None
        target = self._target(banned)
        if target is None:
            return None
        avail = ((self.nbr[target] | self.own << target)
                 & ~self.chosen & ~banned)
        orbits = (_orbits(self.contains,
                          [self.masks[0], self.masks[target]], avail)
                  if orbital else [])
        for v in _bits(avail):
            if banned >> v & 1:
                continue  # in the orbit of a vertex already branched on
            self._place(v, 1)
            result = self._dfs(remaining - 1, banned)
            self._place(v, -1)
            if result is not None:
                return result
            banned |= _orbit(orbits, v)
        return None


def _to_family(params: KneserParams, masks: list[int], indices) -> VertexFamily:
    return VertexFamily(params, tuple(sorted(Vertex(masks[i]) for i in indices)))


def _theorem_bound(params: KneserParams,
                   k: int) -> tuple[int, VertexFamily | None]:
    """Lower bound for every domination kind, and a family attaining it
    where the paper's theorems give one.

    For k, r >= 2 the paper proves gamma_k = k+r when n >= r(k+r), attained
    by a clique, and gamma_k >= k+r+1 when k+2r <= n < r(k+r). Both bound
    gamma_xk and gamma_xkt too, as gamma_k <= gamma_xk <= gamma_xkt. On the
    boundary row n = r(k+r)-1, `gamma_kt_boundary` is a k-tuple total
    dominating set of k+r+1 members, so it is k-tuple and k-dominating too
    and attains the bound for all three kinds. K(n,1) is complete with
    gamma_k = k < k+r, so r = 1 gets no bound.
    """
    n, r = params.n, params.r
    if k < 2 or r < 2 or n < k + 2 * r:
        return 1, None
    if n >= r * (k + r):
        return k + r, disjoint_clique(k, r, n)
    if n == r * (k + r) - 1:
        return k + r + 1, gamma_kt_boundary(k, r)
    return k + r + 1, None


def solve_domination(
    params: KneserParams,
    kind: InvariantKind,
    k: int,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Exact k-domination / k-tuple / k-tuple total domination number.

    For k, r >= 2 and n >= r(k+r) the theorem bound and its clique close the
    instance before any graph is built, and on the boundary row
    n = r(k+r)-1 the bound k+r+1 and `gamma_kt_boundary` do. Otherwise the
    lower bound is raised to the counting bound where that is larger, the
    greedy family is shrunk by the local search (`_DominationSearch.shrink`)
    toward it, and iterative deepening searches only the sizes strictly
    between the two: branch and bound with coverage deficits, first branch
    vertex fixed to [1..r] by vertex-transitivity. When the bounds meet, the
    heuristic's family closes the instance with 0 nodes. On timeout the
    bracket reached so far is returned, with the best heuristic family as
    its upper bound.
    """
    if kind is InvariantKind.TWO_PACKING:
        raise ParameterError("use solve_rho2 for the 2-packing number")
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    if not is_defined(params, kind, k):
        return SolveResult(None, None, wall_time=time.monotonic() - start)
    lb, witness = _theorem_bound(params, k)
    nodes = 0
    if witness is None:
        masks = list(params.vertex_masks())
        search = _DominationSearch(masks, kind, k,
                                   _Deadline(start + cfg.timeout))
        best = search.greedy()
        lb = max(lb, search.counting_bound())
        try:
            for best in search.shrink(best, lb):
                pass  # on a timeout, `best` is the last family yielded
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
    return _certified(witness, kind, k, lb, nodes, start)


# --- 2-packing number ------------------------------------------------------


# Orbital branching runs at the cliques of at most this many members; deeper
# nodes exclude single vertices. Nodes (exact) and CPU seconds (2 CPUs,
# Python 3.11.7, best of 7, indicative) at depth 2 / 3 / 4 / 5 / every depth,
# with the infra-chromatic bound and carried orbits: rho2(9,4) 1,113 / 531 /
# 342 / 333 / 333 nodes in 0.010 / 0.0053 / 0.0042 / 0.0045 / 0.0046 s;
# rho2(12,5) 36,492 / 4,593 / 1,993 / 1,623 / 1,616 in 0.52 / 0.064 / 0.035 /
# 0.036 / 0.038 s. Depth 4 is fastest.
_ORBIT_DEPTH = 4


class _CliqueSearch:
    """Tomita-style maximum clique with greedy-coloring bounds tightened by
    the infra-chromatic bound (`color_order`), and orbital branching at the
    shallow cliques when the root is keyed (`expand`)."""

    def __init__(self, compat: list[int], masks: list[int],
                 contains: list[int], upper: int, deadline: _Deadline):
        self.compat = compat
        # anti[v]: everything but v and its neighbors, to build color classes
        self.anti = [~(row | 1 << v) for v, row in enumerate(compat)]
        self.masks = masks
        self.contains = contains
        self.deadline = deadline
        self.nodes = 0
        # any single vertex is a 2-packing; a clique of `upper` ends the search
        self.best = 1
        self.best_clique = [0]
        self.upper = upper

    def color_order(self, p_mask: int,
                    kmin: int) -> tuple[list[int], list[int]]:
        """Class-by-class greedy coloring with the infra-chromatic bound: the
        branching list, the vertices of color >= kmin that no pair of lower
        classes absorbs, in coloring order, and their 1-based colors.

        Every class is built, but the lower ones are not emitted: `expand`
        stops at the first vertex whose color cannot beat the incumbent. A
        class below kmin is built as a bitset alone, each vertex taken
        striking its neighbors from the rest through `anti`.
        The bound it keeps is ω(`p_mask` minus the branching list) <= kmin-1.
        A vertex v of color >= kmin is absorbed (San Segundo, Nikolaev and
        Batsyn, 2015) when, in the first unused lower class C_i where v has
        exactly one neighbor w, no vertex of some other unused lower class
        C_j neighbors both v and w. Then C_i, C_j and v hold no triangle, so
        at most two clique members where they counted as three colors; C_i
        and C_j are used up, and v leaves the branching list but stays a
        candidate. Each class is maximal among the vertices left when it was
        built, so v has a neighbor in every lower class.
        """
        anti = self.anti
        order: list[int] = []
        colors: list[int] = []
        lower: list[int] = []  # the unused classes below kmin
        color = 0
        while p_mask:
            color += 1
            q = p_mask
            if color < kmin:
                members = 0
                while q:
                    low = q & -q
                    members |= low
                    q &= anti[low.bit_length() - 1]
                p_mask ^= members
                lower.append(members)
                continue
            while q:
                low = q & -q
                v = low.bit_length() - 1
                p_mask ^= low
                q &= anti[v]
                if not (lower and self._absorbed(v, lower)):
                    order.append(v)
                    colors.append(color)
        return order, colors

    def _absorbed(self, v: int, lower: list[int]) -> bool:
        """Whether a pair of the unused classes `lower` absorbs v, as
        `color_order` says; if so the pair is removed from `lower`. Only the
        first class where v has a single neighbor is tried."""
        compat = self.compat
        around = compat[v]
        for i, cls in enumerate(lower):
            hit = around & cls
            if hit & (hit - 1) == 0:  # one neighbor w, the bit of `hit`
                both = around & compat[hit.bit_length() - 1]
                for j, other in enumerate(lower):
                    if j != i and not both & other:
                        del lower[max(i, j)], lower[min(i, j)]
                        return True
                return False
        return False

    def expand(self, clique: list[int], p_mask: int,
               keyed: tuple[list[int], list[int]] | None) -> None:
        """Extend `clique` by the candidates `p_mask`.

        A branch is cut when its coloring bound, capped by `upper`, cannot
        beat `best`; so once `best` reaches `upper` every level returns.

        At a keyed clique C, one of at most _ORBIT_DEPTH members, a branch
        on v, once done, excludes v's whole orbit under G_C, the
        permutations of [n] fixing every member of C; elsewhere it excludes
        v alone. This is sound: G_C lies in the group of every prefix of C,
        so each ancestor's exclusions are unions of G_C-orbits. A clique
        through C and a w in v's orbit that avoids every exclusion so far
        therefore maps, under the g in G_C with g(w) = v, to a clique of the
        same size through C and v that avoids them too, which v's branch has
        searched.

        `keyed` is the parent's orbit classes and Venn atoms (`_refine`), or
        None at a clique that keys nothing. Before its first branch a keyed
        node refines them by its last member, cut down to its candidates;
        `p_mask` has lost no vertex by then and only shrinks after, so each
        orbit restricted to it excludes what the whole orbit would. Its
        children inherit the result while they have at most _ORBIT_DEPTH
        members and some class holds two vertices or more. The root [v0] is
        keyed with the one class of all its candidates and no atoms.
        """
        self.nodes += 1
        self.deadline.check()
        if len(clique) > self.best:
            self.best = len(clique)
            self.best_clique = list(clique)
        order, colors = self.color_order(p_mask, self.best - len(clique) + 1)
        classes: list[int] = []
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if min(len(clique) + colors[idx], self.upper) <= self.best:
                return
            if not p_mask >> v & 1:
                # excluded with an orbit; the colors still bound the rest
                continue
            if keyed:
                classes, atoms = _refine(self.contains, *keyed,
                                         self.masks[clique[-1]], p_mask)
                keyed = None
            clique.append(v)
            self.expand(clique, p_mask & self.compat[v],
                        (classes, atoms)
                        if classes and len(clique) <= _ORBIT_DEPTH else None)
            clique.pop()
            p_mask &= ~_orbit(classes, v)


def solve_rho2(params: KneserParams, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact 2-packing number of K(n,r).

    When no intersection size puts two vertices at distance >= 3 (n >= 3r-1,
    diameter 2) the answer is 1. K(2r,r) is a perfect matching, and the
    r-sets through element 1 attain its value C(2r,r)/2. Inside the band
    2r+1 <= n <= 3r-2 the occurrence-counting bound forces the value to 3 or
    4 in the threshold ranges, with explicit witnesses. Elsewhere in the
    band, once the vertices are enumerated, Delsarte's LP (`delsarte_lp`)
    bounds the value by its floor, after `check_delsarte_dual` has checked
    the dual vector that proves it; at n = 3r-3 a recorded packing of that
    size closes the instance. These instances close without search or graph
    build. Everything else runs maximum-clique branch and bound on the
    compatibility graph, whose one upper bound is the LP floor, and stops
    once a packing meets it; each node is bounded by a greedy coloring and
    the infra-chromatic bound (`_CliqueSearch.color_order`). With symmetry
    breaking the root is the clique [v0], and at every clique C of at most
    four members a branch on a candidate v, once done, excludes v's orbit
    under the permutations fixing each member of C (`_CliqueSearch.expand`):
    they map any packing through C and a vertex of that orbit to a packing
    through C and v. On timeout it returns the bracket from the largest
    packing found to that bound.
    """
    cfg = cfg or SolverConfig()
    start = time.monotonic()
    n, r = params.n, params.r

    sizes = packing_intersections(params)
    if not sizes:
        witness = VertexFamily(params, (Vertex((1 << r) - 1),))
        return _certified(witness, InvariantKind.TWO_PACKING, 0, 1, 0, start)

    if n == 2 * r:
        # a perfect matching: a 2-packing holds one end of each edge at most,
        # and the r-sets through element 1 hold one end of every edge
        witness = VertexFamily(params, tuple(
            Vertex(m) for m in params.vertex_masks() if m & 1))
        return _certified(witness, InvariantKind.TWO_PACKING, 0,
                          comb(n, r) // 2, 0, start)

    # what is left is the band 2r+1 <= n <= 3r-2, so 2 <= t <= r-1
    t = 3 * r - n
    predicted = threshold_predictions(r, t)
    if predicted is not None:
        witness = rho3_witness(r, t) if predicted == 3 else rho4_witness(r, t)
        return _certified(witness, InvariantKind.TWO_PACKING, 0,
                          predicted, 0, start)

    masks = list(params.vertex_masks())
    bound, dual = delsarte_lp(n, r)
    check_delsarte_dual(params, dual, bound)
    upper = floor(bound)
    if n == 3 * r - 3 and len(TABLE3_PACKINGS.get(r, ())) == upper:
        witness = table3_packing(r)
        return _certified(witness, InvariantKind.TWO_PACKING, 0,
                          upper, 0, start)

    deadline = _Deadline(start + cfg.timeout)
    contains = _containers(masks)
    try:
        compat = _relation_bitsets(masks, contains, sizes, deadline)
    except _Timeout:
        witness = _to_family(params, masks, [0])
        return _certified(witness, InvariantKind.TWO_PACKING, 0,
                          upper, 0, start)
    search = _CliqueSearch(compat, masks, contains, upper, deadline)
    # Any maximum 2-packing maps, by vertex-transitivity, to one containing
    # the colex-first vertex, so search only extensions of it.
    if cfg.symmetry_breaking:
        root, root_p = [0], compat[0]
    else:
        root, root_p = [], (1 << len(masks)) - 1
    try:
        search.expand(root, root_p, ([root_p], []) if root else None)
        upper = search.best  # exhaustive, or stopped at the bound
    except _Timeout:
        pass
    witness = _to_family(params, masks, search.best_clique)
    return _certified(witness, InvariantKind.TWO_PACKING, 0,
                      upper, search.nodes, start)
