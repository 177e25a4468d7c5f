"""Kneser-graph data model: vertices as r-subsets, adjacency as disjointness.

Vertices of K(n,r) are the r-subsets of {1,...,n}, stored as int bitmasks
(bit i-1 set <=> element i belongs to the subset). Elements are 1-based in
every public interface; the 0-based bit positions never leak.
"""

from __future__ import annotations

import os
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


def capped_comb(n: int, r: int, cap: int) -> int:
    """min(C(n, r), cap + 1) for 0 <= r <= n, without building a binomial
    past cap: the partial products C(n, i), i = 1..min(r, n - r), rise with
    i, so the first one above cap settles the answer."""
    value = 1
    for i in range(1, min(r, n - r) + 1):
        value = value * (n - i + 1) // i
        if value > cap:
            return cap + 1
    return value


class Record:
    """Base of the package's records: == and hash by the fields, which are
    the subclass's __slots__ in order, a `Name(field=value, ...)` repr, and
    no assignment or deletion after __init__, which sets the fields through
    `_set_fields`. The records are plain classes, not dataclasses, so that
    no import generates their methods with exec.
    """

    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(
            f"{type(self).__qualname__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild a record through __init__, not setattr
        return type(self), self._fields()


class KneserParams(Record):
    """The pair (n, r) defining the Kneser graph K(n,r), with n >= 2r."""

    __slots__ = ("n", "r")

    def __init__(self, n: int, r: int) -> None:
        # type() rather than isinstance(): True is an int, and 7.0 is not
        if type(n) is not int or type(r) is not int:
            raise ParameterError(f"n and r must be integers, got {n!r} and {r!r}")
        if r < 1:
            raise ParameterError(f"r must be positive, got {r}")
        if n < 2 * r:
            raise ParameterError(f"K({n},{r}) undefined: need n >= 2r")
        self._set_fields(n, r)

    @property
    def vertex_count(self) -> int:
        return comb(self.n, self.r)

    @property
    def ground_mask(self) -> int:
        return (1 << self.n) - 1

    def check_capacity(self) -> None:
        """Raise CapacityError when K(n,r) has more vertices than the
        ceiling; the count is bounded, not computed, above it."""
        limit = default_vertex_ceiling()
        if capped_comb(self.n, self.r, limit) > limit:
            raise CapacityError(
                f"K({self.n},{self.r}) has C({self.n},{self.r}) vertices, "
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

    def atoms(self, sets: Iterable[int]) -> dict[int, int]:
        """The Venn atoms of the masks `sets`, each keyed by the bitset of
        the sets that contain it (bit j for the j-th set); the elements of
        [n] outside every set, if any, form the atom keyed 0.

        Two elements share an atom exactly when the same sets contain them,
        so the permutations of [n] that fix each set setwise are those that
        map each atom onto itself. An r-set's class is how many elements it
        takes from each atom, and there are at most C(n,r) classes. Every
        walk over them starts here, so the vertex ceiling is checked here,
        as in `vertex_masks`.
        """
        self.check_capacity()
        containing: dict[int, int] = {}  # element bit -> the sets containing it
        for j, s in enumerate(sets):
            while s:
                low = s & -s
                containing[low] = containing.get(low, 0) | 1 << j
                s ^= low
        atoms: dict[int, int] = {}
        for bit, key in containing.items():
            atoms[key] = atoms.get(key, 0) | bit
        outside = self.ground_mask & ~sum(containing)
        if outside:
            atoms[0] = outside
        return atoms


class Vertex(Record):
    """An r-subset of [n] as a bitmask; ordering by mask is colex order."""

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if mask <= 0:
            raise ParameterError("vertex mask must be a nonempty subset")
        # set directly, as _set_fields's loop would double the cost of the
        # record built most often
        object.__setattr__(self, "mask", mask)

    def __lt__(self, other: Vertex) -> bool:
        # sorted, min and max need only <; a > b falls back to b < a
        if other.__class__ is not Vertex:
            return NotImplemented
        return self.mask < other.mask

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

    def validate_for(self, params: KneserParams) -> None:
        if self.mask.bit_count() != params.r:
            raise ParameterError(
                f"vertex {self.elements} has {self.mask.bit_count()} elements, "
                f"expected r={params.r}"
            )
        if self.mask >> params.n:
            raise ParameterError(
                f"vertex {self.elements} uses elements above n={params.n}"
            )

    def __repr__(self) -> str:
        return f"Vertex{self.elements}"


class VertexFamily(Record):
    """An ordered duplicate-free collection of vertices of one K(n,r)."""

    __slots__ = ("params", "members")

    def __init__(self, params: KneserParams,
                 members: tuple[Vertex, ...]) -> None:
        seen = set()
        for v in members:
            v.validate_for(params)
            if v.mask in seen:
                raise ParameterError(f"duplicate member {v.elements} in family")
            seen.add(v.mask)
        self._set_fields(params, members)

    @property
    def occurrences(self) -> tuple[int, ...]:
        """The occurrence counts i_x = |{u in members : x in u}| for x in [n],
        counted on each access; they satisfy sum_x i_x = r * |members|."""
        counts = [0] * self.params.n
        for v in self.members:
            for x in v.elements:
                counts[x - 1] += 1
        return tuple(counts)

    @classmethod
    def from_sets(
        cls, params: KneserParams, sets: Iterable[Iterable[int]]
    ) -> "VertexFamily":
        return cls(params, tuple(Vertex.from_elements(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.members)

    def member_masks(self) -> tuple[int, ...]:
        return tuple(v.mask for v in self.members)

    def as_sets(self) -> list[list[int]]:
        return [list(v.elements) for v in self.members]

