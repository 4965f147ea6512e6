"""Set functions over a finite ground set.

A *set function* ``h : 2^V -> R`` is the basic object of the paper's
information-theoretic machinery: polymatroids, entropies and the LP
solutions produced by the width computations are all set functions.  This
module provides a small, explicit representation with the derived
quantities used throughout the paper:

* conditional terms ``h(Y | X) = h(XY) - h(X)`` (Eq. (17)),
* conditional mutual information ``h(Y ; Z | X)`` (Eq. (18)).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

Vertex = str
VertexSet = FrozenSet[Vertex]


def as_set(vertices: Iterable[Vertex] | Vertex | None) -> VertexSet:
    """Normalize ``vertices`` (a string, an iterable, or ``None``) to a frozenset.

    Strings are treated as *single vertices*, not iterated character by
    character, because query variables are multi-character names such as
    ``"X1"``.  Pass a list/tuple/set to denote a set of vertices.
    """
    if vertices is None:
        return frozenset()
    if isinstance(vertices, str):
        return frozenset([vertices])
    return frozenset(vertices)


def powerset(ground_set: Iterable[Vertex]) -> Iterator[VertexSet]:
    """All subsets of the ground set, smallest first, in deterministic order."""
    items = sorted(ground_set)
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


class SetFunction:
    """A real-valued function on the subsets of a finite ground set.

    Instances behave like callables: ``h(["X", "Y"])`` returns ``h({X,Y})``.
    Missing subsets default to ``0.0`` only for the empty set; any other
    missing subset raises ``KeyError`` so silent modelling errors cannot
    slip through.
    """

    __slots__ = ("_ground_set", "_values")

    def __init__(
        self,
        ground_set: Iterable[Vertex],
        values: Mapping[FrozenSet[Vertex], float] | None = None,
    ) -> None:
        self._ground_set: VertexSet = frozenset(ground_set)
        self._values: Dict[VertexSet, float] = {frozenset(): 0.0}
        if values:
            for subset, value in values.items():
                self[subset] = value

    # ------------------------------------------------------------------
    @property
    def ground_set(self) -> VertexSet:
        return self._ground_set

    def __setitem__(self, subset: Iterable[Vertex] | Vertex, value: float) -> None:
        key = as_set(subset)
        if not key <= self._ground_set:
            raise KeyError(f"{set(key)} is not a subset of the ground set")
        self._values[key] = float(value)

    def __call__(self, subset: Iterable[Vertex] | Vertex | None) -> float:
        key = as_set(subset)
        if not key <= self._ground_set:
            raise KeyError(f"{set(key)} is not a subset of the ground set")
        try:
            return self._values[key]
        except KeyError:
            raise KeyError(
                f"value of h on {set(key) or '{}'} was never defined"
            ) from None

    def get(self, subset: Iterable[Vertex] | Vertex | None, default: float = 0.0) -> float:
        try:
            return self(subset)
        except KeyError:
            return default

    def is_fully_defined(self) -> bool:
        """Whether a value is stored for every subset of the ground set."""
        return all(subset in self._values for subset in powerset(self._ground_set))

    def defined_subsets(self) -> Tuple[VertexSet, ...]:
        return tuple(sorted(self._values, key=lambda s: (len(s), tuple(sorted(s)))))

    # ------------------------------------------------------------------
    # Derived information measures
    # ------------------------------------------------------------------
    def conditional(
        self,
        target: Iterable[Vertex] | Vertex,
        given: Iterable[Vertex] | Vertex | None = None,
    ) -> float:
        """``h(Y | X) = h(X ∪ Y) - h(X)`` (Eq. (17))."""
        y = as_set(target)
        x = as_set(given)
        return self(x | y) - self(x)

    def mutual_information(
        self,
        first: Iterable[Vertex] | Vertex,
        second: Iterable[Vertex] | Vertex,
        given: Iterable[Vertex] | Vertex | None = None,
    ) -> float:
        """``h(Y ; Z | X) = h(XY) + h(XZ) - h(X) - h(XYZ)`` (Eq. (18))."""
        y = as_set(first)
        z = as_set(second)
        x = as_set(given)
        return self(x | y) + self(x | z) - self(x) - self(x | y | z)

    # ------------------------------------------------------------------
    # Constructors and transformations
    # ------------------------------------------------------------------
    @classmethod
    def from_callable(
        cls, ground_set: Iterable[Vertex], function: Callable[[VertexSet], float]
    ) -> "SetFunction":
        """Materialize ``function`` on every subset of the ground set."""
        ground = frozenset(ground_set)
        values = {subset: float(function(subset)) for subset in powerset(ground)}
        return cls(ground, values)

    def copy(self) -> "SetFunction":
        clone = SetFunction(self._ground_set)
        clone._values = dict(self._values)
        return clone

    def scale(self, factor: float) -> "SetFunction":
        """Return ``factor * h`` (scaling preserves the polymatroid axioms)."""
        clone = SetFunction(self._ground_set)
        clone._values = {key: factor * value for key, value in self._values.items()}
        clone._values[frozenset()] = 0.0
        return clone

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self._ground_set != other._ground_set:
            raise ValueError("set functions must share the same ground set")
        result = SetFunction(self._ground_set)
        for subset in powerset(self._ground_set):
            result[subset] = self.get(subset) + other.get(subset)
        return result

    def restrict(self, subset: Iterable[Vertex]) -> "SetFunction":
        """Restrict the function to a sub-ground-set (values copied verbatim)."""
        keep = as_set(subset)
        if not keep <= self._ground_set:
            raise ValueError("cannot restrict to a non-subset of the ground set")
        result = SetFunction(keep)
        for key, value in self._values.items():
            if key <= keep:
                result[key] = value
        return result

    def almost_equal(self, other: "SetFunction", tolerance: float = 1e-9) -> bool:
        if self._ground_set != other._ground_set:
            return False
        return all(
            abs(self.get(subset) - other.get(subset)) <= tolerance
            for subset in powerset(self._ground_set)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for subset in self.defined_subsets():
            label = "".join(sorted(subset)) or "∅"
            parts.append(f"h({label})={self._values[subset]:.4g}")
        return "SetFunction(" + ", ".join(parts) + ")"
