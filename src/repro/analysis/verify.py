"""Static verification of lowered programs: reject unsound IR before it runs.

Nine PRs of engine work rest on invariants that the IR's construction-time
checks cannot see because they are *program-level* properties: a structural
key must never collide across rename-incompatible subtrees (the result
cache would serve one query's rows to another), a streaming or ranked
:class:`~repro.exec.ir.Enumerate` sink must sit on a fully calibrated
join tree (otherwise dangling tuples leak into the output), and every
operator's structural key must agree with its scan closure (the cache
version key is derived from it).  :func:`verify_program` checks all
of them statically over any :class:`~repro.exec.ir.Program` — lowered or
optimized — and returns structured :class:`Violation` records;
:func:`assert_verified` raises
:class:`~repro.api.errors.PlanVerificationError` instead.

The pipeline is a flat list of *passes* (:data:`VERIFIER_PASSES`), each a
function ``(program, context) -> iterable of Violation``.  Adding a check
means writing one function and appending it to the list — see
``src/repro/analysis/README.md``.

The engine runs this on every optimized program when constructed with
``verify_plans='optimized'`` (default from the
``REPRO_VERIFY_PLANS`` environment variable — the test suite turns it on
for every engine via ``tests/conftest.py``), and the front door exposes it
as ``EXPLAIN VERIFY <statement>`` and ``repro verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..api.errors import PlanVerificationError
from ..exec.ir import (
    ENUMERATION_ORDERS,
    All_,
    Any_,
    Count,
    Distinct,
    Enumerate,
    NonEmpty,
    Operator,
    Program,
    Project,
    Scan,
    Semijoin,
)

__all__ = [
    "PlanVerificationError",
    "VERIFIER_PASSES",
    "Violation",
    "assert_verified",
    "verify_program",
]

#: Verification stages an engine may request (``off`` disables).
VERIFY_STAGES = ("off", "optimized")


@dataclass(frozen=True)
class Violation:
    """One verifier finding: the rule that fired, where, and why."""

    rule: str
    message: str
    #: The operator's 1-based id in ``program.describe()`` (``None`` for
    #: whole-program findings).
    node_id: Optional[int] = None

    def describe(self) -> str:
        where = f" at #{self.node_id}" if self.node_id is not None else ""
        return f"[{self.rule}]{where} {self.message}"


class _Context:
    """Shared per-program state the passes consult (built once)."""

    def __init__(
        self,
        program: Program,
        verb: Optional[str],
        database,
    ) -> None:
        self.program = program
        self.verb = verb
        self.database = database
        self.nodes = program.nodes()
        self.ids = program.node_ids()
        self.consumers: Dict[Operator, List[Operator]] = {n: [] for n in self.nodes}
        for node in self.nodes:
            for child in node.children:
                self.consumers[child].append(node)

    def at(self, node: Operator, rule: str, message: str) -> Violation:
        return Violation(
            rule=rule,
            message=f"{node.label()}: {message}",
            node_id=self.ids.get(node),
        )


# ----------------------------------------------------------------------
# Pass 1: DAG shape — acyclic, single sink, sinks only at the root
# ----------------------------------------------------------------------
def check_dag_shape(program: Program, ctx: _Context) -> Iterator[Violation]:
    """The program must be an acyclic DAG with its one sink at the root."""
    # Acyclicity by identity: frozen nodes cannot normally form a cycle,
    # but a hand-mutated DAG would hang the VM's topological walk.
    visiting: set = set()
    finished: set = set()
    cycle = False
    stack: List[Tuple[Operator, int]] = [(program.root, 0)]
    visiting.add(id(program.root))
    while stack and not cycle:
        node, index = stack.pop()
        if index < len(node.children):
            stack.append((node, index + 1))
            child = node.children[index]
            if id(child) in visiting:
                cycle = True
                break
            if id(child) not in finished:
                visiting.add(id(child))
                stack.append((child, 0))
        else:
            visiting.discard(id(node))
            finished.add(id(node))
    if cycle:
        yield Violation("dag-shape", "operator DAG contains a cycle")
        return
    root = program.root
    for node in ctx.nodes:
        consumers = ctx.consumers[node]
        if node is not root and not consumers:
            # Unreachable nodes cannot appear in a DAG walked from the
            # root; a second sink would mean nodes() missed work.
            yield ctx.at(node, "dag-shape", "unreachable second sink")
        if isinstance(node, (Count, Enumerate)) and node is not root:
            yield ctx.at(
                node,
                "dag-shape",
                "output sink must be the program root "
                "(the VM exempts sinks from the result cache and attaches "
                "result sets only at the root)",
            )
        if node.boolean:
            for consumer in consumers:
                if not isinstance(consumer, (Any_, All_)):
                    yield ctx.at(
                        node,
                        "dag-shape",
                        f"Boolean operator consumed by non-Boolean "
                        f"{consumer.label()}",
                    )


# ----------------------------------------------------------------------
# Pass 2: schema well-formedness / inference consistency
# ----------------------------------------------------------------------
def check_schemas(program: Program, ctx: _Context) -> Iterator[Violation]:
    """Re-run every operator's schema inference and compare the result.

    A frozen node *should* be internally consistent, but rewrite passes
    rebuild nodes wholesale and ``object.__setattr__`` can bypass the
    dataclass guards — re-deriving from the children catches a node whose
    declared ``schema``/``skey`` drifted from what its inputs produce.
    """
    for node in ctx.nodes:
        declared = (node.schema, node.children, node.skey)
        try:
            node.validate(program)
        except (TypeError, ValueError) as error:
            yield ctx.at(node, "schema", str(error))
            continue
        rederived = (node.schema, node.children, node.skey)
        if declared != rederived:
            yield ctx.at(
                node,
                "schema",
                f"declared schema/skey {declared[0]} disagrees with the "
                f"re-derived {rederived[0]} (inference inconsistency)",
            )
        if len(set(node.schema)) != len(node.schema):
            yield ctx.at(node, "schema", f"duplicate output columns {node.schema}")
    if ctx.database is not None:
        for node in ctx.nodes:
            if not isinstance(node, Scan):
                continue
            if node.relation not in ctx.database:
                yield ctx.at(
                    node, "schema", f"scans unknown relation {node.relation!r}"
                )
                continue
            arity = len(ctx.database[node.relation].schema)
            if arity != len(node.schema):
                yield ctx.at(
                    node,
                    "schema",
                    f"scan arity {len(node.schema)} does not match relation "
                    f"{node.relation!r} arity {arity}",
                )


# ----------------------------------------------------------------------
# Pass 3: structural-key soundness (the cross-query cache contract)
# ----------------------------------------------------------------------
def _canonical(node: Operator) -> Operator:
    """The subtree with variables renamed into a canonical sequence.

    Variables are numbered by first appearance in a deterministic
    topological walk, and :class:`Distinct` collapses to its
    :class:`Project` base (they share a structural key by design), so two
    subtrees are rename-compatible exactly when their canonical forms are
    *equal* — an independent witness that never consults ``skey``.
    """
    sub = Program(node)
    mapping: Dict[str, str] = {}
    for member in sub.nodes():
        for variable in member.schema:
            if variable not in mapping:
                mapping[variable] = f"_v{len(mapping)}"
    memo: Dict[Operator, Operator] = {}

    def normalize(member: Operator) -> Operator:
        if member in memo:
            return memo[member]
        if isinstance(member, Distinct):
            rebuilt: Operator = Project(normalize(member.child), member.variables_out)
        else:
            rebuilt = member.rebuild(normalize)
        memo[member] = rebuilt
        return rebuilt

    return normalize(sub.rename(mapping).root)


def check_skey_soundness(program: Program, ctx: _Context) -> Iterator[Violation]:
    """Structurally equal keys must witness rename-compatible subtrees.

    The VM's cross-query result cache serves any operator whose
    ``(skey, scan fingerprint)`` matches a stored entry, renaming the
    cached rows positionally — sound only if equal keys imply subtrees
    equal up to a variable renaming.  This is the PR 3 binding-collision
    bug class; the check constructs the rename witness independently of
    the key derivation, so an under-discriminating ``skey`` encoding is
    caught before the cache ever sees it.
    """
    groups: Dict[Tuple, List[Operator]] = {}
    for node in ctx.nodes:
        groups.setdefault(node.skey, []).append(node)
    for members in groups.values():
        if len(members) < 2:
            continue
        reference = _canonical(members[0])
        for other in members[1:]:
            if _canonical(other) != reference:
                yield ctx.at(
                    other,
                    "skey-collision",
                    f"shares a structural key with #{ctx.ids[members[0]]} "
                    f"({members[0].label()}) but the subtrees are not "
                    "rename-compatible; the result cache would alias them",
                )


# ----------------------------------------------------------------------
# Pass 4: the Enumerate contract
# ----------------------------------------------------------------------
def _lost_outputs(ctx: _Context, sink: Operator, rule: str) -> Iterator[Violation]:
    """Every output variable of a sink must come from one of its inputs
    (the constructors check it too; this guards nodes rewritten afterwards)."""
    inputs = (sink.child, *getattr(sink, "frontiers", ()))
    carried = {variable for node in inputs for variable in node.schema}
    lost = [v for v in sink.variables_out or sink.schema if v not in carried]
    if lost:
        yield ctx.at(sink, rule, f"output variables {lost} are in no input schema")


def check_enumerate_contract(program: Program, ctx: _Context) -> Iterator[Violation]:
    """Streaming/ranked sinks need a calibrated tree and explicit parents.

    A streaming :class:`Enumerate` performs the Yannakakis top-down
    enumeration join lazily, which is only constant-delay — and only
    *correct* without a post-filter — when every participating relation
    has been full-reducer calibrated: the node's child and each frontier
    must be semijoin-reduced against its join-tree parent, and the
    ``parents`` edges must form a tree over the ``[child, *frontiers]``
    sequence.  Ranked (any-k) delivery additionally requires the explicit
    ``parents`` lowered from the join tree: the frontier-heap expansions
    recalibrate along exactly those edges, and an optimizer rewrite that
    drops them silently degrades to derived-parent guessing.
    """
    for node in ctx.nodes:
        if not isinstance(node, Enumerate):
            continue
        if node.order not in ENUMERATION_ORDERS:
            yield ctx.at(node, "enumerate", f"unknown order {node.order!r}")
            continue
        if node.limit is not None and node.limit < 0:
            yield ctx.at(node, "enumerate", f"negative limit {node.limit}")
        # Lowering joins only the subtree that carries the head, so the
        # sink's inputs are the only place an output variable can come from.
        yield from _lost_outputs(ctx, node, "enumerate")
        if not node.frontiers:
            continue
        sequence = (node.child,) + tuple(node.frontiers)
        if node.parents and len(node.parents) != len(node.frontiers):
            yield ctx.at(
                node,
                "enumerate",
                f"{len(node.parents)} parent edges for "
                f"{len(node.frontiers)} frontiers",
            )
            continue
        if node.order == "ranked" and not node.parents:
            yield ctx.at(
                node,
                "enumerate",
                "ranked enumeration over frontiers requires the explicit "
                "join-tree parents lowered with the plan (derived parents "
                "are a hand-built-program fallback, not an optimizer "
                "output)",
            )
        for index, parent in enumerate(node.parents):
            if not 0 <= parent <= index:
                yield ctx.at(
                    node,
                    "enumerate",
                    f"parent {parent} of frontier {index} does not precede "
                    "it in the sequence (not a tree)",
                )
        # Full-reducer calibration: the child and every frontier must be a
        # semijoin reduction, and each frontier's outermost semijoin must be
        # the one by its join-tree parent (the downward calibration pass).
        if not isinstance(node.child, Semijoin):
            yield ctx.at(
                node,
                "enumerate",
                f"streaming sink over an uncalibrated root "
                f"{node.child.label()} (expected the upward semijoin "
                "reduction of the join tree)",
            )
        parents = node.parents or tuple(range(len(node.frontiers)))
        for index, frontier in enumerate(node.frontiers):
            if not isinstance(frontier, Semijoin):
                yield ctx.at(
                    node,
                    "enumerate",
                    f"frontier {index} ({frontier.label()}) is not "
                    "semijoin-calibrated",
                )
                continue
            if not node.parents:
                continue
            parent_node = sequence[parents[index]]
            if frontier.reducer != parent_node:
                yield ctx.at(
                    node,
                    "enumerate",
                    f"frontier {index} is not calibrated against its "
                    f"declared parent (sequence position {parents[index]}): "
                    "the downward full-reducer pass is missing",
                )


# ----------------------------------------------------------------------
# Pass 5: cache keys — skey must agree with the scan closure
# ----------------------------------------------------------------------
def _skey_relations(skey) -> frozenset:
    """Relation names recorded inside a structural key (``scan`` tags)."""
    found: set = set()
    stack = [skey]
    while stack:
        entry = stack.pop()
        if isinstance(entry, tuple):
            if len(entry) >= 2 and entry[0] == "scan" and isinstance(entry[1], str):
                found.add(entry[1])
            stack.extend(entry)
    return frozenset(found)


def check_cache_keys(program: Program, ctx: _Context) -> Iterator[Violation]:
    """The VM's version keys must cover exactly the relations a node reads.

    A cached entry is keyed ``(skey, fingerprint of the scan closure)``:
    after a delta, only operators whose closure contains the mutated
    relation miss.  That is sound only if the structural key records the
    same relation set the DAG actually scans — a key that omits a scanned
    relation would survive a delta to it and serve stale rows.  Scans and
    sinks are cache-exempt, but their keys still seed their consumers'.
    """
    closures: Dict[Operator, frozenset] = {}
    for node in ctx.nodes:  # topological: children first
        closure = frozenset(
            name for child in node.children for name in closures[child]
        )
        if isinstance(node, Scan):
            closure |= {node.relation}
        closures[node] = closure
        if not closure:
            yield ctx.at(
                node,
                "cache-key",
                "empty scan closure: the operator reads no relation, so "
                "no version key can invalidate it",
            )
            continue
        recorded = _skey_relations(node.skey)
        if recorded != closure:
            yield ctx.at(
                node,
                "cache-key",
                f"structural key records relations {sorted(recorded)} but "
                f"the DAG scans {sorted(closure)}; incremental deltas "
                "would miss or alias this node's cache entries",
            )


# ----------------------------------------------------------------------
# Pass 6: verb/sink agreement
# ----------------------------------------------------------------------
def check_verb_sink(program: Program, ctx: _Context) -> Iterator[Violation]:
    """The root's kind must match the verb the program was lowered for, and
    a tree-form :class:`Count` must output every variable of its tree."""
    if ctx.verb is None:
        return
    root = program.root
    if ctx.verb == "exists" and not root.boolean:
        yield ctx.at(
            root, "verb-sink", "exists program must end in a Boolean root"
        )
    elif ctx.verb == "count" and not isinstance(root, Count):
        yield ctx.at(root, "verb-sink", "count program must end in a Count sink")
    elif ctx.verb == "select" and not isinstance(root, Enumerate):
        yield ctx.at(
            root, "verb-sink", "select program must end in an Enumerate sink"
        )
    if ctx.verb != "exists" and isinstance(root, NonEmpty):
        yield ctx.at(root, "verb-sink", f"Boolean root under verb {ctx.verb!r}")
    for sink in (root, *root.children[:1]):
        if isinstance(sink, (Count, Distinct)):
            yield from _lost_outputs(ctx, sink, "verb-sink")
    if isinstance(root, Count) and root.frontiers:
        # Join tuples are distinct outputs only under a head of every tree variable.
        missing = sorted({v for n in root.children for v in n.schema} - set(root.variables_out))
        if missing:
            yield ctx.at(root, "verb-sink", f"count by multiplicities drops tree variables {missing}")


#: The pipeline, in execution order.  Each pass is ``(program, context)
#: -> iterable of Violation``; append new checks here.
VERIFIER_PASSES: Tuple[Callable[[Program, _Context], Iterable[Violation]], ...] = (
    check_dag_shape,
    check_schemas,
    check_skey_soundness,
    check_enumerate_contract,
    check_cache_keys,
    check_verb_sink,
)


def verify_program(
    program: Program,
    *,
    verb: Optional[str] = None,
    database=None,
) -> List[Violation]:
    """Run every verifier pass; returns the violations (empty = sound).

    ``verb`` enables the verb/sink-agreement pass; ``database`` enables
    scan-arity checks against the live schema.  Passes never raise — a
    defect is a :class:`Violation`, so one broken invariant does not mask
    the next.
    """
    ctx = _Context(program, verb, database)
    violations: List[Violation] = []
    for verifier_pass in VERIFIER_PASSES:
        violations.extend(verifier_pass(program, ctx))
    return violations


def assert_verified(
    program: Program,
    *,
    verb: Optional[str] = None,
    database=None,
    stage: str = "optimized",
) -> Program:
    """Raise :class:`PlanVerificationError` on any violation; else pass through."""
    violations = verify_program(program, verb=verb, database=database)
    if violations:
        raise PlanVerificationError(program, violations, stage=stage)
    return program
