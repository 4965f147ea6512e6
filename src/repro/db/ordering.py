"""The deterministic value-order contract shared across the stack.

``select(order="sorted")`` promises distinct output tuples in a total
order that depends only on the tuples themselves — identical across
storage orders and strategies.  That contract is used in three places,
so it lives here at the bottom of the dependency graph:

* :mod:`repro.api.results` re-exports it as the public ordering contract
  (:func:`row_order_key`, :func:`value_order_key`);
* :class:`~repro.db.backends.ColumnarBackend` caches *value ranks* on
  each shared dictionary (codes re-ranked by :func:`value_order_key`),
  so relations can hand out value-sorted row orders without decoding;
* the VM's :class:`~repro.exec.vm.RankedEnumerationStream` keys its
  frontier heap with :func:`value_order_key` components, which is what
  makes the any-k enumeration byte-identical to the sorted contract.

The order is lexicographic over per-value components: values compare
within their type first (type name, then value), bool folds into int the
way Python's own ordering treats it, NaN canonicalizes into a bucket
after every real float, and same-type values without a natural ``<``
fall back to their ``repr``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Row = Tuple[object, ...]


class _Ordered:
    """A comparison wrapper giving any value a total order.

    Natural ``<`` is used when the values support it; values of the same
    type that do not (complex numbers, arbitrary objects) fall back to
    comparing their ``repr`` — deterministic, which is all the result
    order promises.
    """

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Ordered) and self.value == other.value

    def __lt__(self, other: "_Ordered") -> bool:
        try:
            return self.value < other.value  # type: ignore[operator]
        except TypeError:
            return repr(self.value) < repr(other.value)

    def __hash__(self) -> int:  # pragma: no cover - not used as a dict key
        return hash(self.value)


def value_order_key(value: object) -> Tuple[str, _Ordered]:
    """The single-value component of :func:`row_order_key`.

    Comparing rows by these components one position at a time is exactly
    the tuple comparison of their full :func:`row_order_key` keys — the
    property the ranked enumeration's level-by-level heap relies on.
    """
    kind = type(value)
    if kind is bool:
        return ("int", _Ordered(value))
    if kind is float:
        # NaN is not comparable to anything (not even itself), which
        # would silently break the total order; canonicalize it to a
        # bucket sorting after every real float.  Distinct values that
        # differ only in NaN identity tie — their relative order is
        # unspecified (they are indistinguishable by value).
        if value != value:
            return ("float", _Ordered((1, 0.0)))
        return ("float", _Ordered((0, value)))
    return (kind.__name__, _Ordered(value))


def row_order_key(row: Sequence[object]) -> Tuple:
    """A total-order sort key over heterogeneous value tuples.

    The comparator behind ``select(order="sorted")``, for when natural
    tuple comparison raises: values are compared within their
    type first (type name, then value), so mixed-type columns — ints next
    to strings — sort deterministically instead of raising ``TypeError``;
    same-type values without a natural order fall back to their ``repr``.
    Booleans are folded into ints the way Python's own ordering treats
    them.
    """
    return tuple(value_order_key(value) for value in row)


#: Types whose natural ordering matches :func:`row_order_key` when a
#: column is type-uniform (bool folds into int in both orders).
_NATURAL_KINDS = (int, float, str)


def _uniform_natural_order(rows) -> bool:
    """Whether every column holds one natural-ordered type throughout.

    When true, plain tuple comparison is total *and* ranks rows exactly
    like :func:`row_order_key` (equal type names drop out of every
    comparison), so the cheap natural sort may be used.  The decision is a
    function of the value types alone — never of iteration order or of
    which pairs a particular sort happens to compare — keeping the chosen
    order deterministic across storage orders, strategies and limits.
    """
    kinds: Optional[List[type]] = None
    for row in rows:
        if kinds is None:
            kinds = [int if type(v) is bool else type(v) for v in row]
            if any(kind not in _NATURAL_KINDS for kind in kinds):
                return False
            if any(value != value for value in row):  # NaN: no total order
                return False
        else:
            for value, kind in zip(row, kinds):
                value_kind = type(value)
                if value_kind is bool:
                    value_kind = int
                if value_kind is not kind:
                    return False
                if value != value:  # NaN anywhere forces the keyed sort
                    return False
    return True
