"""Lazy result sets for the ``select`` verb: sorted or streaming delivery.

:meth:`repro.api.QueryEngine.select` returns a :class:`ResultSet` without
executing anything; the lowered enumeration program runs on the engine's
virtual machine the first time rows are pulled (iteration, :meth:`fetch`,
:meth:`batches`, :meth:`to_rows`, ``len``).  Two delivery orders exist:

* ``order="sorted"`` — the historical deterministic contract: distinct
  output tuples in a total order that depends only on the tuples
  themselves (natural tuple order when the values support it, a
  type-aware keyed order otherwise), identical across storage orders
  and strategies.  With a small ``limit`` the engine serves this through
  the VM's *ranked* any-k cursor
  (:class:`~repro.exec.vm.RankedEnumerationStream`) — rows arrive
  incrementally, already in the deterministic order, after ~``exists`` +
  O(k log n) work; otherwise the run materializes once and the storage
  layer orders it (:meth:`~repro.db.relation.Relation.ordered_rows`,
  decoding only a limited prefix).
* ``order="stream"`` (the default when a ``limit`` is given) — tuples in
  *discovery order*, pulled incrementally from the VM's
  :class:`~repro.exec.vm.EnumerationStream` cursor with constant delay:
  the first rows cost O(first rows), not O(full output).  The tuple *set*
  (and its cardinality) is identical to the sorted order's; only the
  sequence differs and may vary across storage orders and strategies.

The ordering contract itself (:func:`~repro.db.ordering.row_order_key`
and friends) lives in :mod:`repro.db.ordering` so the storage layer and
the VM share it; this module re-exports the public names.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..db.ordering import row_order_key, value_order_key  # noqa: F401  (re-exported contract)
from ..exec.dispatch import DEFAULT_MORSEL_SIZE
from ..exec.ir import ENUMERATION_ORDERS
from ..exec.vm import EnumerationStream, QueryCancelled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import QueryResult

Row = Tuple[object, ...]


class ResultSet:
    """The cursor handle returned by :meth:`~repro.api.QueryEngine.select`.

    Iterating (or calling :meth:`fetch` / :meth:`batches` / :meth:`to_rows`
    / ``len``) runs the query once; rows are then served in :attr:`order`:
    ``"sorted"`` delivers the deterministic total order — incrementally
    from a ranked any-k cursor when the engine routed the run that way,
    otherwise fixed up front — while ``"stream"`` pulls tuples from the
    VM's enumeration cursor on demand, so the first batch costs O(its
    rows) rather than O(full output).  ``limit`` truncates either order
    to the first ``min(limit, total)`` tuples.
    :attr:`result` exposes the full :class:`~repro.api.QueryResult`
    (timings, traces, cache provenance) of the underlying run.
    """

    def __init__(
        self,
        columns: Tuple[str, ...],
        run: Callable[[], "QueryResult"],
        limit: Optional[int] = None,
        batch_size: int = DEFAULT_MORSEL_SIZE,
        order: str = "sorted",
        on_cancelled: Optional[Callable[[QueryCancelled], None]] = None,
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if order not in ENUMERATION_ORDERS:
            raise ValueError(
                f"order must be one of {ENUMERATION_ORDERS}, got {order!r}"
            )
        self.columns = tuple(columns)
        self.limit = limit
        self.batch_size = batch_size
        self.order = order
        self._run = run
        self._on_cancelled = on_cancelled
        self._result: Optional["QueryResult"] = None
        self._stream: Optional[EnumerationStream] = None
        self._rows: Optional[List[Row]] = None  # fixed rows (sorted paths)
        self._buffer: List[Row] = []  # stream-order rows pulled so far
        self._complete = False
        self._cursor = 0

    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Execute the query once and set up the delivery mode."""
        if self._result is not None:
            return
        result = self._run()
        self._result = result
        stream = getattr(result, "stream", None)
        if stream is not None:
            # Incremental delivery: discovery-order pulls, or a ranked
            # any-k cursor whose batches already arrive in the sorted
            # contract's order (so no ordering work happens here).  The
            # engine streams a sorted select only through a ranked cursor.
            self._stream = stream
            return
        relation = result.relation
        if self.order == "stream":
            # Materialized run (e.g. a non-streaming strategy): any
            # fixed order satisfies the stream contract.
            rows = [] if relation is None else list(relation.rows)
            self._rows = rows[: self.limit] if self.limit is not None else rows
        elif relation is not None:
            # Deterministic order straight off the storage layer: its
            # cached vectorized sort, decoding only the limited prefix.
            self._rows = relation.ordered_rows(self.limit)
        else:
            self._rows = []
        self._complete = True

    def _pull(self, stream: EnumerationStream) -> Optional[List[Row]]:
        try:
            return stream.next_batch()
        except QueryCancelled as exc:
            if self._on_cancelled is not None:
                self._on_cancelled(exc)  # expected to raise the API error
            raise

    def _fill(self, target: Optional[int]) -> None:
        """Pull stream batches until ``target`` buffered rows (or the end)."""
        stream = self._stream
        if stream is None or self._complete:
            return
        bound = target
        if self.limit is not None:
            bound = self.limit if bound is None else min(bound, self.limit)
        while not self._complete and (bound is None or len(self._buffer) < bound):
            batch = self._pull(stream)
            if batch is None:
                self._complete = True
                break
            self._buffer.extend(batch)
        if self.limit is not None and len(self._buffer) >= self.limit:
            del self._buffer[self.limit :]
            self._complete = True

    def _all_rows(self) -> List[Row]:
        self._start()
        if self._stream is not None:
            self._fill(None)
            return self._buffer
        assert self._rows is not None
        return self._rows

    @property
    def executed(self) -> bool:
        """Whether the underlying query has run yet."""
        return self._result is not None

    @property
    def streaming(self) -> bool:
        """Whether rows are (or will be) delivered incrementally.

        ``order="stream"`` always streams; a sorted request streams too
        once the engine has answered it with a ranked any-k cursor (the
        rows arrive sorted, so incremental delivery keeps the contract).
        """
        if self.order != "sorted":
            return True
        return self._stream is not None and self._stream.order == "ranked"

    @property
    def result(self) -> "QueryResult":
        """The run's :class:`~repro.api.QueryResult` (executes if needed)."""
        self._start()
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------
    # Streaming access
    # ------------------------------------------------------------------
    def batches(self) -> Iterator[List[Row]]:
        """The rows in batches of at most :attr:`batch_size`.

        In stream order, each batch is pulled from the VM cursor only when
        the consumer asks for it — the first batch does not wait for the
        rest of the output.
        """
        self._start()
        if self._stream is None:
            assert self._rows is not None
            rows = self._rows
            for start in range(0, len(rows), self.batch_size):
                yield rows[start : start + self.batch_size]
            return
        position = 0
        while True:
            self._fill(position + self.batch_size)
            chunk = self._buffer[position : position + self.batch_size]
            if not chunk:
                return
            position += len(chunk)
            yield chunk

    def __iter__(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch

    def fetch(self, n: int) -> List[Row]:
        """The next ``n`` rows of the stream (cursor-based; may be short).

        Returns an empty list once the stream is exhausted.  The cursor is
        independent of :meth:`__iter__`/:meth:`to_rows`, which always start
        from the beginning.
        """
        if n < 0:
            raise ValueError("fetch size must be non-negative")
        self._start()
        if self._stream is not None:
            self._fill(self._cursor + n)
            chunk = self._buffer[self._cursor : self._cursor + n]
        else:
            assert self._rows is not None
            chunk = self._rows[self._cursor : self._cursor + n]
        self._cursor += len(chunk)
        return chunk

    def rewind(self, restart: bool = False) -> "ResultSet":
        """Reset the :meth:`fetch` cursor to the first row.

        Already-pulled stream rows are buffered, so plain rewinding never
        re-executes the query.  ``restart=True`` additionally discards the
        buffered rows and the underlying run, so the next pull executes
        again — a *cheap* re-execution for streaming runs: the calibrated
        reducer relations the first run put in the engine's result cache
        are reused (their traces show ``cache_hit``), leaving only the
        enumeration itself to redo.
        """
        self._cursor = 0
        if restart:
            self._result = None
            self._stream = None
            self._rows = None
            self._buffer = []
            self._complete = False
        return self

    def to_rows(self) -> List[Row]:
        """All (limited) rows as a list (drains a stream to its end)."""
        return list(self._all_rows())

    def __len__(self) -> int:
        return len(self._all_rows())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._result is None:
            state = "pending"
        elif self._stream is not None and not self._complete:
            state = f"{len(self._buffer)}+ rows"
        else:
            rows = self._buffer if self._stream is not None else self._rows
            state = f"{len(rows or [])} rows"
        limit = f", limit={self.limit}" if self.limit is not None else ""
        return f"ResultSet(({', '.join(self.columns)}), order={self.order}{limit}; {state})"
