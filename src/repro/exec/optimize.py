"""Rewrite passes over physical-operator programs.

One pass runs (:func:`optimize_program`): **dead-operator pruning**
(:func:`prune_operators`) — identity projections and single-branch
Boolean combinators are dropped, and anything no longer
reachable from the root disappears with them.

There is no common-subexpression pass: operators hash and compare
structurally, so a subtree built twice is already one node to the rewrite
memo below, to :meth:`~repro.exec.ir.Program.nodes` and to the VM's
per-run memo, and evaluates once.

Passes preserve the declared output schema of the root, so a program
can be optimized at plan time, cached, and renamed later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .ir import All_, Any_, Operator, Program, Project


@dataclass
class OptimizeStats:
    """What the rewrite passes did to a program.

    ``cse_merged`` and ``semijoins_fused`` name passes that no longer
    exist; they stay 0 for readers of the old record.
    """

    nodes_before: int
    nodes_after: int
    cse_merged: int = 0
    semijoins_fused: int = 0
    operators_pruned: int = 0

    def describe(self) -> str:
        return (
            f"{self.nodes_before} -> {self.nodes_after} operators "
            f"(pruned {self.operators_pruned})"
        )


def _transform(root: Operator, rewrite) -> Operator:
    """Bottom-up rewrite: children first, then ``rewrite`` on the rebuilt node."""
    memo: Dict[Operator, Operator] = {}

    def visit(node: Operator) -> Operator:
        if node in memo:
            return memo[node]
        replaced = memo[node] = rewrite(node.rebuild(visit))
        return replaced

    return visit(root)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def prune_operators(program: Program) -> Tuple[Program, int]:
    """Drop no-op operators (identity projections, single-branch combinators)."""
    pruned = 0

    def rewrite(node: Operator) -> Operator:
        nonlocal pruned
        if isinstance(node, Project) and node.variables_out == node.child.schema:
            pruned += 1
            return node.child
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


def optimize_program(program: Program) -> Tuple[Program, OptimizeStats]:
    """Run the pass pipeline: dead-operator pruning."""
    nodes_before = len(program)
    program, dropped = prune_operators(program)
    stats = OptimizeStats(
        nodes_before=nodes_before,
        nodes_after=len(program),
        operators_pruned=dropped,
    )
    return program, stats
