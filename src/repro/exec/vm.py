"""The instrumented virtual machine executing physical-operator programs.

One sequential interpreter for every strategy: the VM walks a lowered
:class:`~repro.exec.ir.Program` depth-first from its root on the calling
thread, evaluates each operator against the database through the
:class:`~repro.db.relation.Relation` kernels, and records a
per-operator trace (rows in/out, the storage-backend kernel used,
exclusive and inclusive seconds, cache provenance) that feeds
:meth:`repro.api.QueryEngine.explain` and the performance ledger.

Evaluation is lazy where emptiness already decides the result: a join whose
left side is empty never evaluates its right side, a masked product with
an empty mask never evaluates its operands, ``Any``/``All``
short-circuit, and a ``NonEmpty`` root stops as soon as the answer is
known.  Laziness is nothing more than not recursing into a child.  The
per-run memo makes a node shared by several branches evaluate once: a
``HeavyPart`` that both a light antijoin and a heavy semijoin read is one
degree count.

The relational kernels live behind :class:`~repro.db.relation.Relation`,
and that includes the paper's one non-combinatorial primitive:
``GroupedMatMul`` — the grouped Boolean product ``MM(X; Y; Z | G)`` of
Definition 4.5, a plain product when ``G`` is empty — is one method here
and one kernel on dictionary codes there
(:meth:`Relation.matmul <repro.db.relation.Relation.matmul>`).  So is
``Wcoj``, GenericJoin: a frontier of bindings expands one variable at a
time on codes (:meth:`Relation.wcoj <repro.db.relation.Relation.wcoj>`),
in morsels that each check the cancellation token.

One query, one thread
---------------------
The paper's algorithm is for-loops plus matrix multiplication costed on
one RAM, and the interpreter is exactly that.  The only step where
hardware parallelism belongs is inside the MM kernel (BLAS threads):
scheduling operators and probe-side chunks on threads measured
0.36-0.88x of this interpreter on one and on two cores (tables in
CHANGES.md), so there is no intra-query thread pool.  Concurrency
*across* queries is the server's business — its request threads share one
engine — which is why :class:`ResultCache` serializes on a lock and a
:class:`CancellationToken` may be fired from another thread.

Cross-query sharing
-------------------
The VM consults an optional bounded
:class:`~repro.exec.cache.ResultCache` (its own module, on the engine's
one locked LRU) keyed by ``(operator structural key, per-relation
fingerprint)``, when one is given.  Because
structural keys are name-insensitive (see :mod:`repro.exec.ir`), isomorphic
queries in an :meth:`~repro.api.QueryEngine.ask_many` batch share every
common subplan: the cached relation is renamed — an O(1) schema swap — into
the requesting operator's columns.

The fingerprint is *per operator*: each node keys on the versions of only
the relations in its scan closure (the Scans reachable beneath it), via
:meth:`~repro.db.Database.fingerprint_for`.  Mutating relation ``R``
therefore invalidates exactly the subplans that read ``R`` — after a
single-tuple delta, a re-run recomputes only the operators along the
join-tree path touched by the delta'd relation while every untouched
calibrated subtree is served from cache.  Structural keys embed the scan
relation names transitively, so two nodes with equal skeys always have
equal scan closures and the sharing stays sound.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..db.database import Database
from ..db.ordering import value_order_key
from ..db.relation import Relation, Row
from .cache import ResultCache
from .dispatch import DEFAULT_DISPATCHER, KernelDispatcher
from .ir import (
    All_,
    Antijoin,
    Any_,
    Count,
    Enumerate,
    GroupedMatMul,
    HeavyPart,
    Join,
    NonEmpty,
    Operator,
    Program,
    Project,
    Scan,
    Semijoin,
    Wcoj,
)

#: Operator results: a relation, a Boolean (NonEmpty/Any/All), an int
#: (the Count sink), or a pull-driven :class:`EnumerationStream` (the
#: streaming Enumerate sink).  ``bool`` must be tested before ``int``
#: everywhere — Python's bool is an int subclass.
Payload = Union[Relation, bool, int, "EnumerationStream"]


# ----------------------------------------------------------------------
# Cooperative cancellation
# ----------------------------------------------------------------------
class CancellationToken:
    """A thread-safe flag threaded through a VM run for cooperative cancels.

    Two ways a token fires: an explicit :meth:`cancel` (a client
    disconnected, the server is draining) or a *deadline* — a monotonic
    timestamp after which the token reports cancelled and
    :attr:`timed_out` is true.  The interpreter consults the token between
    operators (the streaming cursors per chunk, the WCOJ kernel per
    morsel of bindings and level), so cancellation latency is one
    operator/kernel call or morsel, not one query.  Checks are lock-free reads;
    tokens are cheap enough to build one per ask.
    """

    __slots__ = ("_cancelled", "_deadline", "_timed_out")

    def __init__(self, deadline: Optional[float] = None) -> None:
        #: Absolute ``time.monotonic()`` timestamp, or ``None``.
        self._deadline = deadline
        self._cancelled = False
        self._timed_out = False

    @classmethod
    def with_deadline(cls, seconds: float) -> "CancellationToken":
        """A token that fires ``seconds`` from now (``<= 0`` fires at once)."""
        return cls(deadline=time.monotonic() + seconds)

    def cancel(self) -> None:
        """Fire the token explicitly (idempotent; never marks a timeout)."""
        self._cancelled = True

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one; may be < 0)."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._timed_out = True
            self._cancelled = True
            return True
        return False

    @property
    def timed_out(self) -> bool:
        """Whether the cancellation came from the deadline expiring."""
        return self.cancelled and self._timed_out

    def check(self) -> None:
        """Raise :class:`QueryCancelled` if the token has fired."""
        if self.cancelled:
            raise QueryCancelled(timed_out=self._timed_out)


class QueryCancelled(RuntimeError):
    """A VM run was cancelled (deadline expiry or explicit cancel).

    ``execution`` is the partial :class:`ExecutionResult`: the VM fills
    it on the way out with the traces of the operators that *did*
    complete and how many were abandoned (``cancelled_ops``), so callers
    (the engine, and through it the server) can report a structured
    partial result.  A cancel raised from a streaming cursor, after the
    run returned, carries an empty record.
    """

    def __init__(self, timed_out: bool = False) -> None:
        super().__init__(
            "query execution timed out" if timed_out else "query execution cancelled"
        )
        self.timed_out = timed_out
        self.execution = ExecutionResult(False, timed_out=timed_out, cancelled=True)


@dataclass
class OpTrace:
    """Diagnostics for one executed operator."""

    op_id: int
    kind: str
    label: str
    schema: Tuple[str, ...]
    rows_in: int
    rows_out: int
    #: Which kernel family served the operator: "columnar" (the storage
    #: kernels) for relational operators, "bool" for the Boolean
    #: combinators.
    kernel: str
    #: Exclusive compute seconds — the operator's own kernel time with the
    #: children's time subtracted out (the sum over all traces therefore
    #: approximates the total *work*, not the wall clock).
    seconds: float
    cache_hit: bool = False
    matrix_shape: Optional[Tuple[int, int, int]] = None
    group_count: int = 0
    #: Inclusive span of the operator's evaluation (children included).
    wall_seconds: float = 0.0
    #: Ranked-enumeration frontier-heap accounting (0 unless the operator
    #: was a ranked Enumerate sink): the largest heap size the drain
    #: reached, and how many nodes were popped.  ``heap_pops`` bounds the
    #: total work — each pop costs one heap operation plus O(join tree)
    #: restriction work — so ``pops ≈ k × depth`` is the signature of a
    #: healthy any-k run, while ``peak`` shows the memory high-water mark.
    heap_peak: int = 0
    heap_pops: int = 0

    def describe(self) -> str:
        flags = " [cached]" if self.cache_hit else ""
        extra = (
            f" shape={self.matrix_shape} groups={self.group_count}"
            if self.matrix_shape is not None
            else ""
        )
        if self.heap_pops:
            extra += f" heap={self.heap_pops}p/{self.heap_peak}max"
        return (
            f"#{self.op_id} {self.label}: {self.rows_in} -> {self.rows_out} rows "
            f"({self.kernel}, {self.seconds * 1000:.2f} ms){extra}{flags}"
        )


class EnumerationStream:
    """A pull-driven cursor over a streaming :class:`~repro.exec.ir.Enumerate` sink.

    Produced when the Enumerate root asks for streaming delivery
    (``order="stream"``, ``order="ranked"`` — see
    :class:`RankedEnumerationStream` — or a frontier-carrying sink).  By
    the time the stream exists, the sink's children — the calibrated
    reducer state — are fully evaluated; that work is the ~``exists``-cost prefix, and calibration is
    what makes early stopping sound (after the upward/downward semijoin
    passes every root tuple extends to at least one output tuple).  The
    top-down enumeration join itself runs lazily inside a generator: the
    root relation is consumed in geometrically growing morsel chunks, each
    chunk joined through the calibrated frontier relations with early
    projection onto the outputs plus still-needed join keys (intermediates
    stay bounded by chunk × output), deduplicated against everything
    already emitted, and handed out as one batch.

    ``order="stream"`` stops expanding as soon as ``limit`` distinct
    tuples exist; ``order="sorted"`` with a limit must see every distinct
    tuple (the result set keeps a bounded candidate selection) but still
    never materializes the join.  The run's cancellation token is checked
    per chunk, and the attached :class:`OpTrace` records the tuples
    actually emitted, not the full output.
    """

    #: First chunk size — small so the first batch arrives after O(chunk)
    #: work (time-to-first-row); later chunks double up to the
    #: dispatcher's morsel size.  Kept tiny because each root row fans
    #: out: a calibrated root tuple extends to at least one and often
    #: many output tuples, so even 8 rows usually cover a small limit.
    INITIAL_CHUNK = 8

    def __init__(
        self,
        node: Enumerate,
        root: Relation,
        frontiers: Sequence[Relation],
        token: Optional[CancellationToken],
        morsel_size: int,
    ) -> None:
        self.schema = node.schema
        self.limit = node.limit
        self.order = node.order
        self._root = root
        self._frontiers = list(frontiers)
        self._token = token
        self._morsel = max(int(morsel_size), self.INITIAL_CHUNK)
        #: ``stream`` order truncates inside the join; ``sorted`` scans
        #: every distinct tuple so the caller can pick the smallest k.
        self._stop = self.limit if self.order == "stream" else None
        self.kernel = "columnar"
        self.rows_in = len(root) + sum(len(f) for f in self._frontiers)
        self.emitted = 0
        self.chunks_scanned = 0
        self.exhausted = False
        self._trace: Optional["OpTrace"] = None
        self._generator = self._produce()

    @property
    def nonempty(self) -> bool:
        """Whether the output is nonempty — decided without pulling.

        Free by the full-reducer property: the upward pass already
        removed every root tuple that extends to no output tuple, so the
        calibrated root is nonempty iff the query output is.
        """
        return not self._root.is_empty()

    def attach_trace(self, trace: "OpTrace") -> None:
        """Let the sink's trace row count follow the tuples emitted."""
        self._trace = trace
        trace.rows_out = self.emitted

    def next_batch(self) -> Optional[List[Row]]:
        """The next batch of fresh output tuples (``None`` once exhausted).

        Raises :class:`QueryCancelled` when the run's token fires between
        chunks.  Batches already handed out stay valid, and the calibrated
        children a completed prefix put in the result cache are correct,
        so a cancelled stream never poisons later runs.
        """
        if self.exhausted:
            return None
        try:
            batch = next(self._generator)
        except StopIteration:
            self.exhausted = True
            return None
        return batch

    def drain(self) -> Iterator[List[Row]]:
        """Iterate the remaining batches."""
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch

    def _produce(self) -> Iterator[List[Row]]:
        if self._stop == 0:
            return
        outputs = tuple(self.schema)
        # The projection wanted after each frontier join: outputs plus the
        # join keys later frontiers still need.
        needed_after: List[set] = []
        acc = set(outputs)
        for frontier in reversed(self._frontiers):
            needed_after.append(set(acc))
            acc |= frontier.variables
        needed_after.reverse()
        # A pass-through root (no frontiers, schema already the outputs)
        # is distinct by construction; chunks are then disjoint.
        dedup = bool(self._frontiers) or outputs != tuple(self._root.schema)
        seen: set = set()
        total = len(self._root)
        position = 0
        chunk_rows = min(self.INITIAL_CHUNK, self._morsel)
        while position < total:
            if self._token is not None:
                self._token.check()
            part = self._root.row_slice(position, position + chunk_rows)
            position += chunk_rows
            chunk_rows = min(chunk_rows * 2, self._morsel)
            self.chunks_scanned += 1
            for frontier, needed in zip(self._frontiers, needed_after):
                part = part.join(frontier)
                keep = [v for v in part.schema if v in needed]
                if tuple(keep) != part.schema:
                    part = part.project(keep)
                if part.is_empty():
                    break
            if part.is_empty():
                continue
            if tuple(part.schema) != outputs:
                part = part.project(list(outputs))
            if dedup:
                fresh = [row for row in part if row not in seen]
                seen.update(fresh)
            else:
                fresh = list(part)
            if not fresh:
                continue
            if self._stop is not None and self.emitted + len(fresh) > self._stop:
                fresh = fresh[: self._stop - self.emitted]
            self.emitted += len(fresh)
            if self._trace is not None:
                self._trace.rows_out = self.emitted
            yield fresh
            if self._stop is not None and self.emitted >= self._stop:
                return


class RankedEnumerationStream(EnumerationStream):
    """Any-k ranked enumeration: the globally next tuple per pop.

    The ``order="ranked"`` cursor the dispatcher picks for sorted selects
    with a small limit.  Instead of scanning the root in discovery order,
    it walks a *trie of output-variable prefixes* best-first with a
    frontier priority queue (Lawler-style lazy successor expansion):

    * a heap node is one prefix of output values plus the position of a
      candidate value for the next variable; its key is the tuple of
      :func:`~repro.db.ordering.value_order_key` components of the prefix
      extended by that candidate, so Python's tuple comparison makes a
      prefix sort before every one of its extensions — exactly the
      invariant that keeps the minimal heap key a lower bound on every
      not-yet-emitted output tuple;
    * popping a node pushes at most two successors — the *sibling* (the
      next candidate value at the same position, key recomputed in O(1))
      and the *child* (the relations restricted to the popped value and
      recalibrated by semijoin sweeps along the join tree's ``parents``
      edges, with candidates for the next output variable);
    * candidates at every level come free from the full-reducer property:
      on calibrated relations the projection of the join onto one
      variable equals the projection of *any* relation containing it, so
      the level's value list is
      :meth:`~repro.db.relation.Relation.ordered_distinct_values` of the
      smallest such relation — no join is ever materialized.

    A full-depth pop emits its tuple, so tuples stream out in exactly the
    deterministic sorted order of :func:`~repro.db.ordering.row_order_key`
    — byte-identical to materialize-and-sort — at a cost of O(log heap) +
    O(join tree) restriction work per pop.  With a limit ``k`` the drain
    stops after ``k`` tuples: a sorted-limit select costs the calibrated
    prefix (~``exists``) plus O(k · depth) pops instead of a full-output
    scan.  The cancellation token is checked per pop; ``heap_peak`` /
    ``heap_pops`` land in the attached :class:`OpTrace`.
    """

    def __init__(
        self,
        node: Enumerate,
        root: Relation,
        frontiers: Sequence[Relation],
        token: Optional[CancellationToken],
        morsel_size: int,
    ) -> None:
        super().__init__(node, root, frontiers, token, morsel_size)
        #: Ranked delivery is already sorted, so the limit truncates the
        #: drain itself (the base class leaves ``_stop`` unset for any
        #: order other than ``stream``).
        self._stop = self.limit
        self.heap_peak = 0
        self.heap_pops = 0
        rels = [root, *frontiers]
        if node.parents:
            # parents[i] is the join-tree parent of frontier i as an index
            # into [child, *frontiers]; pad the root so _parents aligns
            # with the ``rels`` list.
            self._parents: Tuple[int, ...] = (0,) + tuple(node.parents)
        else:
            # Hand-built nodes may omit parents: fall back to the nearest
            # earlier relation sharing a variable (the sequence is
            # root-first, so this reconstructs a valid tree order).
            derived = [0]
            for j in range(1, len(rels)):
                parent = 0
                for i in range(j - 1, -1, -1):
                    if rels[i].variables & rels[j].variables:
                        parent = i
                        break
                derived.append(parent)
            self._parents = tuple(derived)

    def attach_trace(self, trace: "OpTrace") -> None:
        super().attach_trace(trace)
        trace.heap_peak = self.heap_peak
        trace.heap_pops = self.heap_pops

    # -- enumeration helpers -------------------------------------------
    def _level_candidates(self, rels: List[Relation], variable: str) -> List:
        """The ordered distinct values ``variable`` takes in the join.

        Exact by calibration: every relation containing the variable
        agrees on its projection, so the smallest one is scanned.
        """
        best: Optional[Relation] = None
        for rel in rels:
            if variable in rel.variables and (best is None or len(rel) < len(best)):
                best = rel
        if best is None:
            raise ValueError(
                f"ranked enumeration: output variable {variable!r} is not "
                "covered by the enumeration inputs"
            )
        return best.ordered_distinct_values(variable)

    def _restrict(
        self, rels: List[Relation], variable: str, value: object
    ) -> Optional[List[Relation]]:
        """``rels`` with ``variable = value``, recalibrated (``None`` if empty).

        Restriction can strand tuples in *other* relations (they joined
        only with now-removed rows), so the full-reducer sweeps rerun
        along the join-tree ``parents`` edges: leaves-up semijoins carry
        the restriction to the root, then a root-down pass calibrates the
        leaves.  Both sweeps are O(join tree) vectorized kernel calls.
        """
        out = list(rels)
        for i, rel in enumerate(out):
            if variable in rel.variables:
                restricted = rel.restrict(variable, (value,))
                if restricted.is_empty():
                    return None
                out[i] = restricted
        parents = self._parents
        for i in range(len(out) - 1, 0, -1):
            reduced = out[parents[i]].semijoin(out[i])
            if reduced.is_empty():
                return None
            out[parents[i]] = reduced
        for i in range(1, len(out)):
            out[i] = out[i].semijoin(out[parents[i]])
        return out

    def _produce(self) -> Iterator[List[Row]]:
        if self._stop == 0 or self._root.is_empty():
            return
        outputs = tuple(self.schema)
        if not outputs:
            # Nullary head: the single empty tuple, iff the calibrated
            # root is nonempty (it is — checked above).
            self.emitted = 1
            if self._trace is not None:
                self._trace.rows_out = 1
            yield [()]
            return
        rels = [self._root, *self._frontiers]
        last = len(outputs) - 1
        # Heap nodes: (key, seq, depth, prefix, values, index, rels).
        # ``seq`` breaks key ties so heapq never compares the payload.
        heap: List[Tuple] = []
        seq = 0
        values = self._level_candidates(rels, outputs[0])
        if not values:
            return
        heap.append(((value_order_key(values[0]),), seq, 0, (), values, 0, rels))
        seq += 1
        self.heap_peak = 1
        batch: List[Row] = []
        batch_cap = min(self.INITIAL_CHUNK * 2, self._morsel)
        while heap:
            if self._token is not None:
                # Per-pop cancellation: a deadline fires within one heap
                # operation even mid-drain.
                self._token.check()
            key, _, depth, prefix, level, index, cur = heapq.heappop(heap)
            self.heap_pops += 1
            value = level[index]
            if index + 1 < len(level):
                # Sibling: same prefix, next candidate — O(1) key update.
                sibling_key = key[:-1] + (value_order_key(level[index + 1]),)
                heapq.heappush(
                    heap, (sibling_key, seq, depth, prefix, level, index + 1, cur)
                )
                seq += 1
            if depth == last:
                batch.append(prefix + (value,))
                self.emitted += 1
                if self._trace is not None:
                    self._trace.rows_out = self.emitted
                    self._trace.heap_peak = self.heap_peak
                    self._trace.heap_pops = self.heap_pops
                done = self._stop is not None and self.emitted >= self._stop
                if done or len(batch) >= batch_cap:
                    yield batch
                    batch = []
                    batch_cap = min(batch_cap * 2, self._morsel, 4096)
                    if done:
                        return
            else:
                child_rels = self._restrict(cur, outputs[depth], value)
                if child_rels is not None:
                    child_values = self._level_candidates(
                        child_rels, outputs[depth + 1]
                    )
                    if child_values:
                        child_key = key + (value_order_key(child_values[0]),)
                        heapq.heappush(
                            heap,
                            (
                                child_key,
                                seq,
                                depth + 1,
                                prefix + (value,),
                                child_values,
                                0,
                                child_rels,
                            ),
                        )
                        seq += 1
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)
        if self._trace is not None:
            self._trace.heap_peak = self.heap_peak
            self._trace.heap_pops = self.heap_pops
        if batch:
            yield batch


@dataclass
class ExecutionResult:
    """The record of one program run: the answer plus per-operator traces.

    :meth:`VirtualMachine.run` returns it and
    :attr:`QueryResult.execution <repro.api.QueryResult.execution>` is the
    same object; a cancelled run's partial record rides on
    :class:`QueryCancelled` as ``exc.execution``.
    """

    answer: bool
    relation: Optional[Relation] = None
    #: The Count sink's scalar (``None`` unless the program root counts).
    row_count: Optional[int] = None
    #: The streaming Enumerate sink's pull cursor (``None`` unless the
    #: program root streams).  When set, ``relation`` is ``None`` — the
    #: output is never materialized inside the VM.
    stream: Optional[EnumerationStream] = None
    operators: List[OpTrace] = field(default_factory=list)
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Operators never evaluated because a :class:`CancellationToken`
    #: fired mid-run.
    cancelled_ops: int = 0
    #: Whether the run was cut short by a deadline expiring.  The traces
    #: then cover only the operators that completed before the cut.
    timed_out: bool = False
    #: Whether a cancellation token cut the run short (deadline expiry
    #: or explicit cancel); ``answer`` is then vacuously ``False``.
    cancelled: bool = False

    def trace_for(self, node: Operator, ids: Dict[Operator, int]) -> Optional[OpTrace]:
        """The trace of one operator (``None`` if it was short-circuited away)."""
        node_id = ids.get(node)
        if node_id is None:
            return None
        for trace in self.operators:
            if trace.op_id == node_id:
                return trace
        return None

    def describe(self) -> str:
        """A per-operator execution trace."""
        lines = [f"answer: {self.answer}  ({self.seconds * 1000:.2f} ms)"]
        if self.timed_out:
            lines[0] += f"  [TIMED OUT; {self.cancelled_ops} operators abandoned]"
        elif self.cancelled:
            lines[0] += f"  [CANCELLED; {self.cancelled_ops} operators abandoned]"
        lines.extend(f"  {trace.describe()}" for trace in self.operators)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The virtual machine
# ----------------------------------------------------------------------
class VirtualMachine:
    """Executes operator programs against one database.

    Parameters
    ----------
    database:
        The data programs are evaluated against.
    result_cache:
        Optional cross-run intermediate-result cache.
    dispatcher:
        The select-delivery dispatcher; defaults to the process-wide
        :data:`~repro.exec.dispatch.DEFAULT_DISPATCHER`.
    token:
        Optional :class:`CancellationToken`.  The interpreter checks it
        cooperatively between operators (and inside the streaming cursors
        and the WCOJ row search), raising :class:`QueryCancelled` —
        carrying the partial traces and the abandoned-operator count —
        when it fires.  Already-completed operator results stay in the
        shared result cache (they are correct), so a timed-out ask never
        poisons later ones.
    """

    def __init__(
        self,
        database: Database,
        result_cache: Optional[ResultCache] = None,
        *,
        dispatcher: Optional[KernelDispatcher] = None,
        token: Optional[CancellationToken] = None,
    ) -> None:
        self.database = database
        self.result_cache = result_cache
        self.dispatcher = dispatcher if dispatcher is not None else DEFAULT_DISPATCHER
        self.token = token

    def run(self, program: Program) -> ExecutionResult:
        start = time.perf_counter()
        ids = program.node_ids()
        state = _RunState(self, ids, _node_fingerprints(program, self.database))
        try:
            payload = state.eval(program.root)
        except QueryCancelled as exc:
            exc.execution = ExecutionResult(
                False,
                operators=list(state.traces),
                seconds=time.perf_counter() - start,
                cancelled_ops=len(ids) - len(state.traces),
                timed_out=exc.timed_out,
                cancelled=True,
            )
            raise
        answer, relation, row_count, stream = _interpret_root(payload)
        return ExecutionResult(
            answer=answer,
            relation=relation,
            row_count=row_count,
            stream=stream,
            operators=state.traces,
            seconds=time.perf_counter() - start,
            cache_hits=state.cache_hits,
            cache_misses=state.cache_misses,
        )


def _node_fingerprints(
    program: Program, database: Database
) -> Dict[Operator, Hashable]:
    """Per-operator result-cache fingerprints from each node's scan closure.

    Computed in one topological pass (children first): a node's closure is
    the union of its children's closures plus its own relation when it is a
    :class:`Scan`.  The fingerprint covers only those relations'
    per-relation versions, so a cached subplan survives mutations to every
    relation it never reads.  Distinct closures are fingerprinted once per
    run (join-tree siblings typically share most of them).
    """
    closures: Dict[Operator, frozenset] = {}
    memo: Dict[frozenset, Hashable] = {}
    fingerprints: Dict[Operator, Hashable] = {}
    for node in program.nodes():
        names = {node.relation} if isinstance(node, Scan) else set()
        for child in node.children:
            names.update(closures[child])
        closure = frozenset(names)
        closures[node] = closure
        fingerprint = memo.get(closure)
        if fingerprint is None:
            fingerprint = memo[closure] = database.fingerprint_for(closure)
        fingerprints[node] = fingerprint
    return fingerprints


def _interpret_root(
    payload: Payload,
) -> Tuple[bool, Optional[Relation], Optional[int], Optional[EnumerationStream]]:
    """``(answer, relation, row_count, stream)`` from a program root's payload."""
    if isinstance(payload, bool):
        return payload, None, None, None
    if isinstance(payload, EnumerationStream):
        # The answer is known without pulling a single tuple: the
        # calibrated root's non-emptiness decides satisfiability.
        return payload.nonempty, None, None, payload
    if isinstance(payload, int):
        return payload > 0, None, int(payload), None
    return not payload.is_empty(), payload, None, None


class _RunState:
    """One program run: memo table, traces, cache counters, operator kernels.

    :meth:`eval` is the interpreter loop (memo, cancellation point, result
    cache, timing, trace); :meth:`_eval_op` holds one branch per operator
    class and pulls its children by calling :meth:`eval` back — laziness
    is simply not making that call.
    """

    def __init__(
        self,
        vm: VirtualMachine,
        ids: Dict[Operator, int],
        fingerprints: Dict[Operator, Hashable],
    ) -> None:
        self.vm = vm
        self.dispatcher = vm.dispatcher
        self.ids = ids
        self.fingerprints = fingerprints
        # bounded-by: per-run lifetime (one entry per program operator)
        self.memo: Dict[Operator, Payload] = {}
        self.traces: List[OpTrace] = []
        self.cache_hits = 0
        self.cache_misses = 0
        #: Child-time accounting so traces carry *exclusive* per-operator
        #: seconds (the sum over all traces approximates the run total).
        self._spans: List[float] = [0.0]

    # ------------------------------------------------------------------
    def eval(self, node: Operator) -> Payload:
        if node in self.memo:
            return self.memo[node]
        if self.vm.token is not None:
            # The cooperative cancellation point: one check per operator
            # evaluation, so a deadline fires within one kernel call.
            self.vm.token.check()
        cache = self.vm.result_cache
        cache_key = None
        # Scans read straight from the database; Enumerate passes its
        # child's relation through unchanged — caching either would only
        # duplicate rows the cache already holds (or can rebuild for free).
        if cache is not None and not isinstance(node, (Scan, Enumerate)):
            cache_key = (node.skey, self.fingerprints[node])
            hit = cache.get(cache_key)
            if hit is not None:
                stored_schema, payload = hit
                if isinstance(payload, Relation):
                    payload = payload.rename(dict(zip(stored_schema, node.schema)))
                self.memo[node] = payload
                self.cache_hits += 1
                self._trace(node, payload, rows_in=0, seconds=0.0, cache_hit=True)
                return payload
            self.cache_misses += 1
        start = time.perf_counter()
        self._spans.append(0.0)
        payload, rows_in, extra = self._eval_op(node)
        span = time.perf_counter() - start
        child_seconds = self._spans.pop()
        self._spans[-1] += span
        self.memo[node] = payload
        if cache_key is not None:
            cache.put(cache_key, node.schema, payload)
        self._trace(
            node,
            payload,
            rows_in=rows_in,
            seconds=max(span - child_seconds, 0.0),
            wall_seconds=span,
            **extra,
        )
        return payload

    def _trace(
        self,
        node: Operator,
        payload: Payload,
        rows_in: int,
        seconds: float,
        cache_hit: bool = False,
        wall_seconds: float = 0.0,
        matrix_shape: Optional[Tuple[int, int, int]] = None,
        group_count: int = 0,
        kernel: Optional[str] = None,
    ) -> None:
        if isinstance(payload, bool):
            rows_out = int(payload)
            kernel = kernel or "bool"
        elif isinstance(payload, EnumerationStream):
            # A streaming Enumerate sink: rows_out follows the tuples actually
            # emitted (the stream updates its attached trace as it drains).
            rows_out = payload.emitted
            kernel = kernel or payload.kernel
        elif isinstance(payload, int):
            # A Count sink: rows_out records the count; the kernel override
            # (set by _eval_op) names the kernels that served the counting.
            rows_out = int(payload)
            kernel = kernel or "scalar"
        else:
            rows_out = len(payload)
            kernel = kernel or "columnar"
        trace = OpTrace(
            op_id=self.ids.get(node, 0),
            kind=node.kind(),
            label=node.label(),
            schema=node.schema,
            rows_in=rows_in,
            rows_out=rows_out,
            kernel=kernel,
            seconds=seconds,
            cache_hit=cache_hit,
            matrix_shape=matrix_shape,
            group_count=group_count,
            wall_seconds=wall_seconds,
        )
        if isinstance(payload, EnumerationStream):
            payload.attach_trace(trace)
        self.traces.append(trace)

    # -- operator implementations ---------------------------------------
    def _relation(self, node: Operator) -> Relation:
        payload = self.eval(node)
        assert isinstance(payload, Relation)
        return payload

    def _eval_op(self, node: Operator) -> Tuple[Payload, int, dict]:
        """``(payload, rows_in, extra trace fields)`` of one operator."""
        extra: dict = {}
        if isinstance(node, Scan):
            relation = self.vm.database[node.relation]
            if len(relation.schema) != len(node.schema):
                raise ValueError(
                    f"scan of {node.relation!r} expects arity {len(node.schema)} "
                    f"but the relation has arity {len(relation.schema)}"
                )
            renamed = relation.rename(dict(zip(relation.schema, node.schema)))
            return renamed.with_name(node.relation), len(relation), extra

        if isinstance(node, Project):
            child = self._relation(node.child)
            if not node.schema:
                # Nullary projection: one empty tuple iff the child is nonempty.
                return (
                    Relation((), [()] if not child.is_empty() else []),
                    len(child),
                    extra,
                )
            return child.project(list(node.schema)), len(child), extra

        if isinstance(node, HeavyPart):
            child = self._relation(node.child)
            return child.heavy_part(list(node.given), node.threshold), len(child), extra

        if isinstance(node, Join):
            left = self._relation(node.left)
            if left.is_empty():
                return Relation(node.schema, ()), 0, extra
            right = self._relation(node.right)
            return left.join(right), len(left) + len(right), extra

        if isinstance(node, (Semijoin, Antijoin)):
            child = self._relation(node.child)
            if child.is_empty():
                return child, 0, extra
            reducer = self._relation(node.reducer)
            reduced = (
                child.antijoin(reducer)
                if isinstance(node, Antijoin)
                else child.semijoin(reducer)
            )
            return reduced, len(child) + len(reducer), extra

        if isinstance(node, GroupedMatMul):
            return self._matmul(node)

        if isinstance(node, Wcoj):
            inputs = [self._relation(x) for x in node.inputs]
            morsel, token = self.dispatcher.morsel_size, self.vm.token
            result = Relation.wcoj(inputs, node.variable_order, node.find_all, morsel, token)
            return result, sum(len(r) for r in inputs), extra

        if isinstance(node, Count):
            child = self._relation(node.child)
            extra["kernel"] = "columnar"
            if not node.frontiers:
                return child.count_distinct(list(node.variables_out)), len(child), extra
            frontiers = [self._relation(f) for f in node.frontiers]
            count = child.count_join_tree(frontiers, node.parents)
            return count, len(child) + sum(len(f) for f in frontiers), extra

        if isinstance(node, Enumerate):
            if node.streaming:
                # Streaming delivery: pull every child — the calibrated
                # reducer state — then hand back a cursor.  Discovery
                # order runs the top-down enumeration join lazily, chunk
                # by chunk; ranked order drains the any-k frontier heap.
                root = self._relation(node.child)
                frontiers = [self._relation(f) for f in node.frontiers]
                stream_cls = (
                    RankedEnumerationStream
                    if node.order == "ranked"
                    else EnumerationStream
                )
                stream = stream_cls(
                    node, root, frontiers, self.vm.token, self.dispatcher.morsel_size
                )
                extra["kernel"] = stream.kernel
                return stream, stream.rows_in, extra
            # Pass-through sink: the child already holds the distinct
            # output tuples; the engine's ResultSet streams them from the
            # run's result relation in deterministic order.
            child = self._relation(node.child)
            return child, len(child), extra

        if isinstance(node, NonEmpty):
            child = self._relation(node.child)
            return not child.is_empty(), len(child), extra

        if isinstance(node, Any_):
            count = 0
            for branch in node.inputs:
                count += 1
                if self.eval(branch):
                    return True, count, extra
            return False, count, extra

        if isinstance(node, All_):
            count = 0
            for branch in node.inputs:
                count += 1
                if not self.eval(branch):
                    return False, count, extra
            return True, count, extra

        raise TypeError(f"VM: unknown operator {type(node).__name__}")

    # -- matrix multiplication -----------------------------------------
    def _matmul(self, node: GroupedMatMul) -> Tuple[Payload, int, dict]:
        # Children come mask first: an empty mask decides the answer, as an
        # empty left side decides a Join's, so the product is never built.
        inputs: List[Relation] = []
        for child in node.children:
            inputs.append(self._relation(child))
            if inputs[-1].is_empty():
                return (
                    Relation(node.schema, ()),
                    sum(len(r) for r in inputs),
                    {"matrix_shape": (0, 0, 0)},
                )
        mask, left, right = inputs if node.mask is not None else (None, *inputs)
        product, shape, group_count = left.matmul(
            right,
            node.row_variables,
            node.inner_variables,
            node.col_variables,
            node.group_variables,
            mask=mask,
        )
        return (
            product,
            sum(len(r) for r in inputs),
            {"matrix_shape": shape, "group_count": group_count},
        )
