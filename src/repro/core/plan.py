"""ω-query plans (Definition E.12).

An ω-query plan is a generalized variable elimination order together with a
decision, for every elimination step, of *how* the step is executed:

* ``for-loops`` — join all incident relations (a worst-case-optimal join on
  the step's ``U`` set) and project the eliminated block away; or
* ``matrix multiplication`` — pick a concrete MM term
  ``MM(first; second; block | group_by)`` and realize the elimination as a
  (grouped) Boolean matrix product.

Plans can be written by hand, produced by the cost-based planner
(:mod:`repro.core.planner`), or derived from the width machinery (the MM
terms here are exactly the :class:`repro.hypergraph.mm_terms.MMTerm` objects
that appear in ``EMM``, whose polymatroid values :mod:`repro.width.mm_expr`
computes).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional, Sequence, Tuple

from ..hypergraph.elimination import elimination_sequence
from ..hypergraph.hypergraph import Hypergraph, VertexSet
from ..hypergraph.mm_terms import MMTerm, enumerate_mm_terms


class StepMethod(str, Enum):
    """How one elimination step is executed."""

    FOR_LOOPS = "for_loops"
    MATRIX_MULTIPLICATION = "matrix_multiplication"


@dataclass(frozen=True)
class PlanStep:
    """One elimination step of an ω-query plan."""

    block: VertexSet
    method: StepMethod
    mm_term: Optional[MMTerm] = None

    def __post_init__(self) -> None:
        if self.method is StepMethod.MATRIX_MULTIPLICATION:
            if self.mm_term is None:
                raise ValueError("matrix multiplication steps need an MM term")
            if self.mm_term.eliminated != self.block:
                raise ValueError(
                    "the MM term must eliminate exactly the step's block"
                )
        elif self.mm_term is not None:
            raise ValueError("for-loop steps must not carry an MM term")

    def describe(self) -> str:
        block = "".join(sorted(self.block))
        if self.method is StepMethod.FOR_LOOPS:
            return f"eliminate {{{block}}} by for-loops"
        assert self.mm_term is not None
        return f"eliminate {{{block}}} by {self.mm_term.label()}"

    def rename(self, mapping: dict) -> "PlanStep":
        """The same step over renamed variables (missing keys unchanged)."""
        return PlanStep(
            block=_rename_set(self.block, mapping),
            method=self.method,
            mm_term=_rename_term(self.mm_term, mapping),
        )


@dataclass(frozen=True)
class OmegaQueryPlan:
    """A full plan: an ordered sequence of elimination steps."""

    hypergraph: Hypergraph
    steps: Tuple[PlanStep, ...]

    def __post_init__(self) -> None:
        covered: set = set()
        for step in self.steps:
            if covered & step.block:
                raise ValueError("plan blocks must be pairwise disjoint")
            covered |= step.block
        if covered != set(self.hypergraph.vertices):
            raise ValueError("a plan must eliminate every variable exactly once")

    @property
    def order(self) -> Tuple[VertexSet, ...]:
        return tuple(step.block for step in self.steps)

    def describe(self) -> str:
        return "\n".join(
            f"{position + 1}. {step.describe()}"
            for position, step in enumerate(self.steps)
        )

    def rename(self, mapping: dict) -> "OmegaQueryPlan":
        """The same plan over renamed variables.

        The renaming must be injective on the plan's variables (enforced by
        :meth:`Hypergraph.rename`).  Used by the plan cache to move plans
        between a concrete query's variables and the canonical shape
        variables, so one cached plan serves every isomorphic query.
        """
        return OmegaQueryPlan(
            hypergraph=self.hypergraph.rename(mapping),
            steps=tuple(step.rename(mapping) for step in self.steps),
        )

    def validate(self) -> None:
        """Check each MM step's term against the elimination hypergraph sequence.

        The chosen MM term of step ``i`` must be one of the terms that
        ``EMM`` offers on the hypergraph *at that point* of the elimination
        (Definition 4.5); otherwise the plan cannot be realized.
        """
        sequence = elimination_sequence(self.hypergraph, self.order)
        for step, elimination in zip(self.steps, sequence):
            if step.method is not StepMethod.MATRIX_MULTIPLICATION:
                continue
            available = set(enumerate_mm_terms(elimination.hypergraph, step.block))
            if step.mm_term not in available:
                raise ValueError(
                    f"MM term {step.mm_term.label()} is not realizable when "
                    f"eliminating {{{''.join(sorted(step.block))}}}"
                )


def _rename_set(variables: FrozenSet[str], mapping: dict) -> FrozenSet[str]:
    return frozenset(mapping.get(v, v) for v in variables)


def _rename_term(term: Optional[MMTerm], mapping: dict) -> Optional[MMTerm]:
    if term is None:
        return None
    return MMTerm(
        first=_rename_set(term.first, mapping),
        second=_rename_set(term.second, mapping),
        eliminated=_rename_set(term.eliminated, mapping),
        group_by=_rename_set(term.group_by, mapping),
    )


def all_for_loop_plan(hypergraph: Hypergraph, order: Sequence) -> OmegaQueryPlan:
    """The purely combinatorial plan following a given (G)VEO."""
    steps = []
    for block in order:
        block_set = frozenset([block]) if isinstance(block, str) else frozenset(block)
        steps.append(PlanStep(block=block_set, method=StepMethod.FOR_LOOPS))
    return OmegaQueryPlan(hypergraph=hypergraph, steps=tuple(steps))
