"""Kneser-graph data model: vertices as r-subsets, adjacency as disjointness.

Vertices of K(n,r) are the r-subsets of {1,...,n}, stored as int bitmasks
(bit i-1 set <=> element i belongs to the subset). Elements are 1-based in
every public interface; the 0-based bit positions never leak.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator


class ParameterError(ValueError):
    """Invalid or mutually inconsistent parameters."""


class CapacityError(RuntimeError):
    """An enumeration-based operation would exceed the vertex ceiling."""


class DefinabilityError(ValueError):
    """The requested invariant is not defined for these parameters."""


class InternalCheckError(RuntimeError):
    """A correctness check inside the library failed: a bug, not bad input."""


def internal_check(condition: bool, message: str) -> None:
    """Raise InternalCheckError unless `condition`; unlike assert, it also
    runs under python -O."""
    if not condition:
        raise InternalCheckError(message)


DEFAULT_VERTEX_CEILING = 5_000_000
_CEILING_ENV_VAR = "KNESERDOM_VERTEX_CEILING"


def default_vertex_ceiling() -> int:
    """Vertex ceiling for enumeration, overridable via KNESERDOM_VERTEX_CEILING."""
    raw = os.environ.get(_CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_VERTEX_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{_CEILING_ENV_VAR} must be an integer, got {raw!r}")
    if value <= 0:
        raise ParameterError(f"{_CEILING_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class KneserParams:
    """The pair (n, r) defining the Kneser graph K(n,r), with n >= 2r."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ParameterError(f"r must be positive, got {self.r}")
        if self.n < 2 * self.r:
            raise ParameterError(
                f"K({self.n},{self.r}) undefined: need n >= 2r"
            )

    @property
    def vertex_count(self) -> int:
        return comb(self.n, self.r)

    @property
    def min_degree(self) -> int:
        # K(n,r) is regular of degree C(n-r, r).
        return comb(self.n - self.r, self.r)

    @property
    def ground_mask(self) -> int:
        return (1 << self.n) - 1

    def check_capacity(self) -> None:
        limit = default_vertex_ceiling()
        if self.vertex_count > limit:
            raise CapacityError(
                f"K({self.n},{self.r}) has {self.vertex_count} vertices, "
                f"exceeding the ceiling of {limit}"
            )

    def vertex_masks(self) -> Iterator[int]:
        """All r-subset masks in increasing mask order (= colex order).

        Every enumeration of the vertices starts here, so this is where the
        vertex ceiling is checked: on the first `next`, before any mask.
        """
        self.check_capacity()
        mask = (1 << self.r) - 1
        top = 1 << self.n
        while mask < top:
            yield mask
            # Gosper's hack: next mask with the same popcount.
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((mask ^ ripple) >> 2) // low)

    def vertices(self) -> Iterator["Vertex"]:
        for mask in self.vertex_masks():
            yield Vertex(mask)


@dataclass(frozen=True, order=True)
class Vertex:
    """An r-subset of [n] as a bitmask; ordering by mask is colex order."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask <= 0:
            raise ParameterError("vertex mask must be a nonempty subset")

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "Vertex":
        mask = 0
        for x in elements:
            if x < 1:
                raise ParameterError(f"elements are 1-based, got {x}")
            bit = 1 << (x - 1)
            if mask & bit:
                raise ParameterError(f"duplicate element {x} in vertex")
            mask |= bit
        return cls(mask)

    @property
    def elements(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def validate_for(self, params: KneserParams) -> None:
        if self.mask.bit_count() != params.r:
            raise ParameterError(
                f"vertex {self.elements} has {self.mask.bit_count()} elements, "
                f"expected r={params.r}"
            )
        if self.mask & ~params.ground_mask:
            raise ParameterError(
                f"vertex {self.elements} uses elements above n={params.n}"
            )

    def intersection_size(self, other: "Vertex") -> int:
        return (self.mask & other.mask).bit_count()

    def __repr__(self) -> str:
        return f"Vertex{self.elements}"


def is_adjacent(u: Vertex, v: Vertex) -> bool:
    """Adjacency in a Kneser graph: the subsets are disjoint."""
    if u.size != v.size:
        raise ParameterError("vertices from different Kneser graphs")
    return (u.mask & v.mask) == 0


@dataclass(frozen=True)
class VertexFamily:
    """An ordered duplicate-free collection of vertices of one K(n,r).

    Caches the occurrence counts i_x = |{u in members : x in u}| for x in [n];
    these satisfy sum_x i_x = r * |members|.
    """

    params: KneserParams
    members: tuple[Vertex, ...]
    occurrences: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        seen = set()
        counts = [0] * self.params.n
        for v in self.members:
            v.validate_for(self.params)
            if v.mask in seen:
                raise ParameterError(f"duplicate member {v.elements} in family")
            seen.add(v.mask)
            for x in v.elements:
                counts[x - 1] += 1
        object.__setattr__(self, "occurrences", tuple(counts))

    @classmethod
    def from_sets(
        cls, params: KneserParams, sets: Iterable[Iterable[int]]
    ) -> "VertexFamily":
        return cls(params, tuple(Vertex.from_elements(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.members)

    def __contains__(self, v: Vertex) -> bool:
        return any(v.mask == u.mask for u in self.members)

    def member_masks(self) -> tuple[int, ...]:
        return tuple(v.mask for v in self.members)

    def as_sets(self) -> list[list[int]]:
        return [list(v.elements) for v in self.members]


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


def occurrence_classes(
    D: VertexFamily, a: int
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(X_a, X_a>=, X_a<=): elements with i_x equal / at least / at most a."""
    if a < 0:
        raise ParameterError(f"occurrence threshold must be >= 0, got {a}")
    exact, at_least, at_most = set(), set(), set()
    for x in range(1, D.params.n + 1):
        ix = D.occurrences[x - 1]
        if ix == a:
            exact.add(x)
        if ix >= a:
            at_least.add(x)
        if ix <= a:
            at_most.add(x)
    return frozenset(exact), frozenset(at_least), frozenset(at_most)


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
