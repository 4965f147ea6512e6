"""Rewrite passes over physical-operator programs.

Three passes run by default (:func:`optimize_program`):

* **common-subexpression elimination** (:func:`eliminate_common_subexpressions`)
  — hash-consing: structurally equal operators are merged into one node, so
  a relation scanned or reduced twice inside a program is evaluated once;
* **semijoin-chain fusion** (:func:`fuse_semijoins`) — a chain
  ``Semijoin(Semijoin(x, a), b)`` whose intermediate results have no other
  consumers becomes one :class:`~repro.exec.ir.MultiSemijoin`, executed in a
  single pass over ``x`` instead of one materialization per reducer (this is
  what a Yannakakis upward pass lowers to on star-shaped join trees);
* **dead-operator pruning** (:func:`prune_operators`) — identity projections,
  single-input unions and single-branch Boolean combinators are dropped,
  and anything no longer reachable from the root disappears with them.

All passes preserve the declared output schema of the root, so a program
can be optimized at plan time, cached, and renamed later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .ir import (
    All_,
    Antijoin,
    Any_,
    Count,
    Enumerate,
    GroupedMatMul,
    Join,
    MatMul,
    MultiSemijoin,
    NonEmpty,
    Operator,
    Program,
    Project,
    Restrict,
    Scan,
    Semijoin,
    Union,
    Wcoj,
    HeavyPart,
    LightPart,
)


@dataclass
class OptimizeStats:
    """What the rewrite passes did to a program."""

    nodes_before: int
    nodes_after: int
    cse_merged: int = 0
    semijoins_fused: int = 0
    operators_pruned: int = 0

    def describe(self) -> str:
        return (
            f"{self.nodes_before} -> {self.nodes_after} operators "
            f"(cse merged {self.cse_merged}, fused {self.semijoins_fused} "
            f"semijoins, pruned {self.operators_pruned})"
        )


def _rebuild(node: Operator, children: Tuple[Operator, ...]) -> Operator:
    """The same operator over replaced children (schemas re-inferred)."""
    if len(children) == len(node.children) and all(
        new is old for new, old in zip(children, node.children)
    ):
        return node
    if isinstance(node, Scan):
        return node
    if isinstance(node, Project):
        # type(node) keeps Distinct sinks Distinct through rewrites.
        return type(node)(children[0], node.variables_out)
    if isinstance(node, Restrict):
        return Restrict(children[0], node.variable, children[1], node.source_variable)
    if isinstance(node, HeavyPart):
        return HeavyPart(children[0], node.given, node.threshold)
    if isinstance(node, LightPart):
        return LightPart(children[0], node.given, node.threshold)
    if isinstance(node, Join):
        return Join(children[0], children[1])
    if isinstance(node, Semijoin):
        return Semijoin(children[0], children[1])
    if isinstance(node, Antijoin):
        return Antijoin(children[0], children[1])
    if isinstance(node, MultiSemijoin):
        return MultiSemijoin(children[0], tuple(children[1:]))
    if isinstance(node, Union):
        return Union(tuple(children))
    if isinstance(node, MatMul):
        return MatMul(
            children[0],
            children[1],
            node.row_variables,
            node.inner_variables,
            node.col_variables,
        )
    if isinstance(node, GroupedMatMul):
        return GroupedMatMul(
            children[0],
            children[1],
            node.row_variables,
            node.inner_variables,
            node.col_variables,
            node.group_variables,
        )
    if isinstance(node, Wcoj):
        return Wcoj(tuple(children), node.variable_order, node.find_all)
    if isinstance(node, Count):
        return Count(children[0], node.variables_out, tuple(children[1:]), node.parents)
    if isinstance(node, Enumerate):
        # ``parents`` must ride along: the ranked (any-k) stream follows
        # exactly these join-tree edges, and dropping them here would
        # silently degrade it to shared-variable parent guessing.
        return Enumerate(
            children[0],
            tuple(children[1:]),
            node.variables_out,
            node.limit,
            node.order,
            node.parents,
        )
    if isinstance(node, NonEmpty):
        return NonEmpty(children[0])
    if isinstance(node, Any_):
        return Any_(tuple(children))
    if isinstance(node, All_):
        return All_(tuple(children))
    raise TypeError(f"rebuild: unknown operator {type(node).__name__}")


def _transform(root: Operator, rewrite) -> Operator:
    """Bottom-up rewrite: children first, then ``rewrite`` on the rebuilt node."""
    memo: Dict[Operator, Operator] = {}

    def visit(node: Operator) -> Operator:
        if node in memo:
            return memo[node]
        rebuilt = _rebuild(node, tuple(visit(child) for child in node.children))
        replaced = rewrite(rebuilt)
        memo[node] = replaced
        return replaced

    return visit(root)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _identity_node_count(root: Operator) -> int:
    """Distinct nodes by object identity (before hash-consing)."""
    seen: set = set()

    def visit(node: Operator) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children:
            visit(child)

    visit(root)
    return len(seen)


def eliminate_common_subexpressions(program: Program) -> Tuple[Program, int]:
    """Merge structurally equal operators into a single shared node."""
    before = _identity_node_count(program.root)
    rewritten = Program(_transform(program.root, lambda node: node), source=program.source)
    merged = before - _identity_node_count(rewritten.root)
    return rewritten, merged


def fuse_semijoins(program: Program) -> Tuple[Program, int]:
    """Collapse single-consumer semijoin chains into ``MultiSemijoin`` nodes.

    ``Semijoin(Semijoin(x, a), b)`` is only fused when the inner semijoin
    has no other parent in the DAG — otherwise its intermediate result is
    needed anyway and fusing would duplicate work.  The same guard keeps
    the reducers independent of the partially reduced target: a reducer
    derived from the fused-away intermediate would make that intermediate
    multi-consumer and block the fusion.
    """
    parents: Dict[Operator, int] = {}
    for node in program.nodes():
        for child in node.children:
            parents[child] = parents.get(child, 0) + 1
    fused = 0
    memo: Dict[Operator, Operator] = {}

    def visit(node: Operator) -> Operator:
        nonlocal fused
        if node in memo:
            return memo[node]
        rebuilt = _rebuild(node, tuple(visit(child) for child in node.children))
        if isinstance(rebuilt, (Semijoin, MultiSemijoin)):
            child = rebuilt.children[0]
            # The single-consumer guard must consult the *pre-rewrite* DAG:
            # rebuilt children are not keys of the parents map.
            original_child = node.children[0]
            if (
                isinstance(child, (Semijoin, MultiSemijoin))
                and parents.get(original_child, 0) <= 1
            ):
                fused += 1
                rebuilt = MultiSemijoin(
                    child.children[0],
                    tuple(child.children[1:]) + tuple(rebuilt.children[1:]),
                )
        memo[node] = rebuilt
        return rebuilt

    return Program(visit(program.root), source=program.source), fused


def prune_operators(program: Program) -> Tuple[Program, int]:
    """Drop no-op operators (identity projections, single-branch combinators)."""
    pruned = 0

    def rewrite(node: Operator) -> Operator:
        nonlocal pruned
        if isinstance(node, Project) and node.variables_out == node.child.schema:
            pruned += 1
            return node.child
        if isinstance(node, Union) and len(node.inputs) == 1:
            pruned += 1
            return node.inputs[0]
        if isinstance(node, (Any_, All_)) and len(node.inputs) == 1:
            pruned += 1
            return node.inputs[0]
        if (
            isinstance(node, Project)
            and isinstance(node.child, Project)
        ):
            pruned += 1
            # Preserve the node's own class: a Distinct sink collapsing a
            # plain projection underneath must stay a Distinct sink.
            return type(node)(node.child.child, node.variables_out)
        return node

    return Program(_transform(program.root, rewrite), source=program.source), pruned


def optimize_program(
    program: Program,
    *,
    fuse: bool = True,
    cse: bool = True,
    prune: bool = True,
) -> Tuple[Program, OptimizeStats]:
    """Run the default pass pipeline: CSE, semijoin fusion, pruning."""
    nodes_before = len(program)
    merged = fused = dropped = 0
    if cse:
        program, merged = eliminate_common_subexpressions(program)
    if fuse:
        program, fused = fuse_semijoins(program)
    if prune:
        program, dropped = prune_operators(program)
    stats = OptimizeStats(
        nodes_before=nodes_before,
        nodes_after=len(program),
        cse_merged=merged,
        semijoins_fused=fused,
        operators_pruned=dropped,
    )
    return program, stats
