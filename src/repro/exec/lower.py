"""Lowering every strategy to the physical-operator IR.

Each function turns one *logical* way of answering a conjunctive query
into a :class:`~repro.exec.ir.Program`; the engine's strategies
(:mod:`repro.api.strategies`) call them and run the result on its VM.
The verb-capable lowerings (naive, GenericJoin, Yannakakis) take a
``verb`` — ``"exists"`` ends in the Boolean :class:`~repro.exec.ir.NonEmpty`
root, while ``"count"``/``"select"`` finish with the
:class:`~repro.exec.ir.Count` /
:class:`~repro.exec.ir.Distinct`+:class:`~repro.exec.ir.Enumerate` output
sinks over the query's free variables:

* :func:`lower_naive` — fold the atoms with binary joins (the classical
  baseline);
* :func:`lower_generic_join` — a single :class:`~repro.exec.ir.Wcoj`
  operator holding the worst-case-optimal search (Ngo, Ré, Rudra) in a
  given variable order;
* :func:`lower_yannakakis` — the GYO join tree (:func:`_gyo_join_tree`)
  becomes an upward semijoin program, joined only where the head is;
* :func:`lower_plan` — an :class:`~repro.core.plan.OmegaQueryPlan`'s
  elimination steps become Join/Project or GroupedMatMul nodes (a product
  whose variables the other operands cover is masked by them, not joined
  with them), with the side-splitting and realizability checks done
  *statically* from the operator schemas;
* :func:`lower_triangle` / :func:`lower_four_cycle` / :func:`lower_clique`
  — the per-query-class algorithms (Figure 1 degree partitioning, the
  adaptive 4-cycle split, Nešetřil–Poljak clique detection) expressed as
  IR DAGs rather than standalone engines.  A degree split is one
  :class:`~repro.exec.ir.HeavyPart` per relation and variable: light rows
  are an :class:`~repro.exec.ir.Antijoin` with it, heavy operands a
  :class:`~repro.exec.ir.Semijoin`, and the cases are branches of one
  short-circuiting :class:`~repro.exec.ir.Any_`.

Lowerings that mirror an instrumented report (triangle, 4-cycle) also
return *role* records pointing at the operators whose traces
reconstruct the legacy diagnostics.

Programs lowered here are *pure* in the relations they scan, which is
what makes incremental maintenance work downstream: the VM keys each
operator's result-cache entry on the fingerprints of the relations in
the operator's scan closure, so after a small delta only the join-tree
paths whose closure contains the mutated relation re-execute — the
calibrated semijoin state of untouched subtrees is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.plan import OmegaQueryPlan, PlanStep, StepMethod
from ..db.database import Database
from ..db.query import ConjunctiveQuery
from ..matmul.cost import triangle_threshold
from .ir import (
    ENUMERATION_ORDERS,
    All_,
    Antijoin,
    Any_,
    Count,
    Distinct,
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

#: The query verbs a lowering may be asked to serve — the canonical
#: vocabulary (the API layer re-exports it).
VERBS = ("exists", "count", "select")


def check_verb(verb: str) -> None:
    """Reject anything outside the verb vocabulary (shared validation)."""
    if verb not in VERBS:
        raise ValueError(f"unknown query verb {verb!r}; expected one of {VERBS}")


@dataclass(frozen=True)
class SelectOptions:
    """How a ``select`` run wants its output tuples delivered.

    ``order="stream"`` asks for discovery-order enumeration with constant
    delay; ``order="ranked"`` asks for *sorted*-order enumeration through
    the any-k frontier heap (the engine picks it for sorted selects with
    a small limit); a non-``None`` ``limit`` bounds how many distinct
    tuples the caller will pull.  ``order="sorted"`` always materializes
    — with a limit the result layer takes the bounded ``nsmallest``
    prefix, without one it sorts the full output once.
    """

    limit: Optional[int] = None
    order: str = "sorted"

    def __post_init__(self) -> None:
        if self.order not in ENUMERATION_ORDERS:
            raise ValueError(
                f"select order must be one of {ENUMERATION_ORDERS}, "
                f"got {self.order!r}"
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")

    @property
    def streaming(self) -> bool:
        return self.order != "sorted"


def apply_select_options(program: Program, options: SelectOptions) -> Program:
    """Stamp ``limit``/``order`` onto a select program's Enumerate root.

    Lowerings that are not streaming-aware produce the pass-through
    Enumerate sink; rebuilding just the root hands the ResultSet/VM the
    delivery contract without touching the cacheable subprogram beneath.
    A root that already carries the options is returned unchanged.
    """
    root = program.root
    if not isinstance(root, Enumerate):
        return program
    if root.limit == options.limit and root.order == options.order:
        return program
    rebuilt = Enumerate(
        root.child,
        root.frontiers,
        root.variables_out,
        options.limit,
        options.order,
        root.parents,
    )
    return Program(rebuilt, source=program.source)


def _output_sink(node: Operator, query: ConjunctiveQuery, verb: str) -> Operator:
    """Wrap a relational operator covering the outputs in the verb's sink.

    ``exists`` keeps the historical Boolean root; ``count`` counts the
    distinct output projections without materializing them; ``select``
    materializes the distinct output relation under an :class:`Enumerate`
    marker the engine's result sets stream from.
    """
    outputs = tuple(query.output_variables)
    missing = [v for v in outputs if v not in node.schema]
    if missing:
        raise ValueError(
            f"lowering lost output variables {missing}: schema {node.schema}"
        )
    if verb == "exists":
        return NonEmpty(node)
    if verb == "count":
        return Count(node, outputs)
    sink = node if outputs == node.schema else Distinct(node, outputs)
    return Enumerate(sink)


def scan_atoms(query: ConjunctiveQuery) -> List[Scan]:
    """One Scan per query atom, columns renamed to the atom's variables."""
    return [Scan(atom.relation, tuple(atom.variables)) for atom in query.atoms]


def _project(node: Operator, variables: Sequence[str]) -> Operator:
    """A Project node, skipped when it would be the identity."""
    variables = tuple(variables)
    if variables == node.schema:
        return node
    return Project(node, variables)


def _static_size(node: Operator, database: Database) -> float:
    """A rough static cardinality used to order join folds smallest-first."""
    if isinstance(node, Scan):
        return float(len(database[node.relation]))
    if isinstance(node, (Project, Semijoin)):
        return _static_size(node.children[0], database)
    return float("inf")


def _fold_joins(nodes: Sequence[Operator], database: Optional[Database]) -> Operator:
    """Left-fold Join nodes, smallest estimated input first when stats exist.

    A product whose variables the other operands cover is looked up, not
    joined: it comes back masked by their fold (Figure 1's last step), so
    the product's entries are never listed.
    """
    ordered = list(nodes)
    if database is not None:
        ordered.sort(key=lambda n: _static_size(n, database))
    for index, node in enumerate(ordered):
        others = ordered[:index] + ordered[index + 1:]
        if (
            isinstance(node, GroupedMatMul)
            and node.mask is None
            and others
            and node.variables <= frozenset().union(*(n.variables for n in others))
        ):
            return replace(node, mask=_fold_joins(others, None))  # already ordered
    result = ordered[0]
    for node in ordered[1:]:
        result = Join(result, node)
    return result


# ----------------------------------------------------------------------
# Naive pairwise join
# ----------------------------------------------------------------------
def lower_naive(query: ConjunctiveQuery, verb: str = "exists") -> Program:
    """The naive strategy: a left-to-right join fold under the verb's sink.

    ``exists`` tests non-emptiness of the fold (the historical Boolean
    program); ``count``/``select`` count or enumerate the distinct
    projections of the fold onto the query's output variables.
    """
    check_verb(verb)
    scans = scan_atoms(query)
    joined: Operator = scans[0]
    for scan in scans[1:]:
        joined = Join(joined, scan)
    return Program(_output_sink(joined, query, verb), source="naive")


# ----------------------------------------------------------------------
# GenericJoin
# ----------------------------------------------------------------------
def lower_generic_join(
    query: ConjunctiveQuery, variable_order: Sequence[str], verb: str = "exists"
) -> Program:
    """GenericJoin as a single Wcoj operator over the atom scans.

    ``exists`` — and a Boolean head, which only needs non-emptiness (the
    nullary projection) — keeps the early-terminating search; any other
    ``count``/``select`` runs it exhaustively and projects the full
    assignment relation onto the output variables under the verb's sink.
    ``variable_order`` must cover exactly the query variables.
    """
    check_verb(verb)
    if sorted(variable_order) != sorted(query.variables):
        raise ValueError("variable_order must cover exactly the query variables")
    find_all = verb != "exists" and not query.is_boolean
    wcoj = Wcoj(tuple(scan_atoms(query)), tuple(variable_order), find_all)
    return Program(_output_sink(wcoj, query, verb), source="generic-join")


# ----------------------------------------------------------------------
# Yannakakis
# ----------------------------------------------------------------------
def _gyo_join_tree(query: ConjunctiveQuery) -> List[Tuple[str, Optional[str]]]:
    """A join tree as (atom, parent) pairs via GYO ear removal.

    Raises ``ValueError`` when the query is cyclic.
    """
    remaining: Dict[str, FrozenSet[str]] = {
        atom.relation: atom.variable_set for atom in query.atoms
    }
    exclusive_owner: List[Tuple[str, Optional[str]]] = []
    while remaining:
        progressed = False
        names = list(remaining)
        for name in names:
            variables = remaining[name]
            others = [v for other, v in remaining.items() if other != name]
            shared = set()
            for variable in variables:
                if any(variable in other for other in others):
                    shared.add(variable)
            parent = None
            for other, other_vars in remaining.items():
                if other != name and shared <= other_vars:
                    parent = other
                    break
            if parent is not None or len(remaining) == 1:
                exclusive_owner.append((name, parent))
                del remaining[name]
                progressed = True
                break
        if not progressed:
            raise ValueError("query is cyclic; Yannakakis requires an acyclic query")
    return exclusive_owner


def _connex_tree(
    query: ConjunctiveQuery, verb: str
) -> Tuple[List[Tuple[str, Optional[str]]], List[str]]:
    """The join tree oriented for the head, and its connex subtree.

    Returns ``(atom, parent)`` pairs children-first (root last) and the
    subtree's atoms root-first.  ``exists`` and Boolean heads keep the GYO
    ear-removal order and a subtree of just its root.  Any other head tries
    every atom as the root of the same GYO edges, walked breadth-first; the
    subtree is the root plus, per output variable, the path to the nearest
    atom holding it (the first in the walk: the atoms holding one variable
    are connected).  The smallest subtree wins — one atom, when one covers
    the head — ties going to the atom GYO removed last, so a head that
    gains nothing keeps ``exists``' upward pass.
    """
    order = _gyo_join_tree(query)
    outputs = () if verb == "exists" else query.output_variables
    if not outputs:
        return order, [order[-1][0]]
    scopes = {atom.relation: atom.variable_set for atom in query.atoms}
    edges = [pair for child, parent in order[:-1] for pair in ((child, parent), (parent, child))]

    def rooted_at(root: str):
        parent_of: Dict[str, Optional[str]] = {root: None}
        sequence = [root]
        for name in sequence:  # grows while walked: parents precede children
            for near, far in edges:
                if near == name and far not in parent_of:
                    parent_of[far] = name
                    sequence.append(far)
        joined = {root}
        for variable in outputs:
            name = next(n for n in sequence if variable in scopes[n])
            while name not in joined:
                joined.add(name)
                name = parent_of[name]
        return [(n, parent_of[n]) for n in reversed(sequence)], [n for n in sequence if n in joined]

    trees = [rooted_at(name) for name, _ in reversed(order)]
    return min(trees, key=lambda tree: len(tree[1]))


def describe_join_tree(program: Program) -> str:
    """One line naming a Yannakakis program's orientation, read off its operators."""
    joined: List[Operator] = []
    pending = [program.root]
    while pending:  # root first: through the sink, Joins and Projects
        node = pending.pop()
        if node is program.root or isinstance(node, (Join, Project)):
            pending.extend(reversed(node.children))
            continue
        while node.children:  # the atom a chain of semijoins reduces
            node = node.children[0]
        joined.append(node)
    reducers = [n for n in program.nodes() if isinstance(n, Scan) and n not in joined]
    tree_count = isinstance(program.root, Count) and program.root.frontiers
    combined = "count by multiplicities over" if tree_count else "joined"
    return (
        f"join tree: root {joined[0].label()[len('Scan '):]}; "
        f"{combined} {{{', '.join(n.relation for n in joined)}}}; "
        f"reducers only {{{', '.join(n.relation for n in reducers)}}}"
    )


def lower_yannakakis(
    query: ConjunctiveQuery,
    verb: str = "exists",
    select_options: Optional[SelectOptions] = None,
) -> Program:
    """The join tree as a semijoin-reduction program under a verb sink.

    Raises ``ValueError`` when the query is cyclic.

    Every verb runs the upward pass over the whole tree of
    :func:`_connex_tree`: emptiness anywhere reaches the root through the
    semijoins (a reducer with no shared variables empties its target when
    it is itself empty), and every root tuple left extends to an answer.
    ``exists`` — and a Boolean head, whose nullary projection is 1/0 by
    non-emptiness — sinks on that reduced root.

    ``count``/``select`` touch only the head's *connex subtree* again;
    atoms outside it are reducers and nothing else.  A ``count`` whose head
    holds every subtree variable counts join tuples (relations are sets):
    a tree-form :class:`Count` sums multiplicities bottom-up over the
    reduced subtree, with no calibration and no join.  Otherwise its atoms
    are calibrated downward (each semijoined by its already-calibrated
    parent, after which none of their tuples dangles) and joined
    root-first, intermediates projected onto the outputs plus the join
    keys still needed, so sizes stay bounded by input plus output.  When
    one atom covers the head there is nothing to calibrate or join: the
    Count / Enumerate sink sits directly on the reduced root.

    A ``select`` with streaming :class:`SelectOptions` (``order="stream"``
    or ``"ranked"``) skips the materialized join: the subtree's calibrated
    relations go to a streaming :class:`Enumerate` sink — with the
    join-tree ``parents`` indices, so ranked mode can recalibrate
    restrictions — and the VM joins lazily, stopping at the limit.
    """
    check_verb(verb)
    order, sequence = _connex_tree(query, verb)
    parent_of = dict(order)
    nodes: Dict[str, Operator] = {
        atom.relation: scan for atom, scan in zip(query.atoms, scan_atoms(query))
    }
    for name, parent in order:
        if parent is not None:
            nodes[parent] = Semijoin(nodes[parent], nodes[name])
    if verb == "exists":
        return Program(NonEmpty(nodes[sequence[0]]), source="yannakakis")
    scopes = {atom.relation: atom.variable_set for atom in query.atoms}
    outputs = set(query.output_variables)
    # Join-tree parents as indices into [root, *frontiers]: the multiplicity
    # sums and the ranked stream's recalibration sweeps follow these edges.
    parents = tuple(sequence.index(parent_of[name]) for name in sequence[1:])
    if verb == "count" and all(scopes[name] <= outputs for name in sequence):
        frontiers = tuple(nodes[name] for name in sequence[1:])
        sink = Count(nodes[sequence[0]], tuple(query.output_variables), frontiers, parents)
        return Program(sink, source="yannakakis")
    for name in sequence[1:]:
        nodes[name] = Semijoin(nodes[name], nodes[parent_of[name]])
    if (
        verb == "select"
        and select_options is not None
        and select_options.streaming
        and not query.is_boolean
    ):
        return Program(
            Enumerate(
                nodes[sequence[0]],
                tuple(nodes[name] for name in sequence[1:]),
                tuple(query.output_variables),
                select_options.limit,
                select_options.order,
                parents,
            ),
            source="yannakakis",
        )
    # Top-down enumeration join (parents always before their children),
    # projecting early onto outputs + still-needed join keys.
    joined = nodes[sequence[0]]
    for position, name in enumerate(sequence[1:], start=1):
        joined = Join(joined, nodes[name])
        needed = set(outputs)
        for later in sequence[position + 1:]:
            needed |= scopes[later]
        joined = _project(joined, [v for v in joined.schema if v in needed])
    return Program(_output_sink(joined, query, verb), source="yannakakis")


# ----------------------------------------------------------------------
# ω-query plans
# ----------------------------------------------------------------------
def lower_plan(
    query: ConjunctiveQuery, database: Optional[Database], plan: OmegaQueryPlan
) -> Program:
    """Lower an ω-query plan's elimination steps to the IR.

    Mirrors the elimination semantics of the legacy executor: each step
    joins (or matrix-multiplies) the relations incident to its block and
    projects the block away; the Boolean answer is the conjunction of
    non-emptiness over every nullary intermediate and every leftover
    relation.  Side-splitting for MM steps and the realizability checks
    happen here, statically, from the operator schemas.
    """
    nodes: List[Operator] = list(scan_atoms(query))
    checks: List[Operator] = []
    for step in plan.steps:
        block = step.block
        incident = [n for n in nodes if n.variables & block]
        others = [n for n in nodes if not (n.variables & block)]
        if not incident:
            # Variables mentioned by no remaining relation are unconstrained.
            continue
        if step.method is StepMethod.FOR_LOOPS:
            joined = _fold_joins(incident, database)
            keep = [v for v in joined.schema if v not in block]
            produced = _project(joined, keep)
        else:
            assert step.mm_term is not None
            produced = _lower_mm_step(incident, step, database)
        if produced.schema:
            nodes = others + [produced]
        else:
            nodes = others
            checks.append(NonEmpty(produced))
    checks.extend(NonEmpty(n) for n in nodes)
    root: Operator = checks[0] if len(checks) == 1 else All_(tuple(checks))
    return Program(root, source="omega-plan")


def _lower_mm_step(
    incident: Sequence[Operator], step: PlanStep, database: Optional[Database]
) -> Operator:
    """Split the incident operators into matrix sides and emit a GroupedMatMul."""
    term = step.mm_term
    assert term is not None
    first, second = term.first, term.second
    block, group_by = term.eliminated, term.group_by
    a_side: List[Operator] = []
    b_side: List[Operator] = []
    for node in incident:
        touches_first = bool(node.variables & first)
        touches_second = bool(node.variables & second)
        if touches_first and touches_second:
            raise ValueError(
                f"relation over {sorted(node.variables)} spans both matrix "
                f"dimensions of {term.label()}; the term is not realizable"
            )
        if touches_first:
            a_side.append(node)
        elif touches_second:
            b_side.append(node)
        else:
            # Only eliminated/group-by variables: constrain both sides
            # (Definition 4.5 allows the hyperedge families to overlap).
            a_side.append(node)
            b_side.append(node)
    if not a_side or not b_side:
        raise ValueError(f"cannot realize {term.label()}: one matrix side is empty")
    a_joined = _fold_joins(a_side, database)
    b_joined = _fold_joins(b_side, database)
    if not first <= a_joined.variables or not second <= b_joined.variables:
        raise ValueError(
            f"term {term.label()} does not match the incident relations: the outer "
            "dimensions are not covered by the two matrix sides"
        )
    if not block <= a_joined.variables or not block <= b_joined.variables:
        raise ValueError(
            f"term {term.label()} does not cover the eliminated block on both "
            "matrix sides; the term is not realizable on these relations"
        )
    common_group = sorted(group_by & a_joined.variables & b_joined.variables)
    a_extra = sorted((group_by & a_joined.variables) - set(common_group))
    b_extra = sorted((group_by & b_joined.variables) - set(common_group))
    return GroupedMatMul(
        a_joined,
        b_joined,
        row_variables=tuple(sorted(first) + a_extra),
        inner_variables=tuple(sorted(block)),
        col_variables=tuple(sorted(second) + b_extra),
        group_variables=tuple(common_group),
    )


# ----------------------------------------------------------------------
# Triangle (Figure 1)
# ----------------------------------------------------------------------
@dataclass
class TriangleRoles:
    """Operators whose traces reconstruct the Figure-1 report."""

    threshold: int
    light_joins: Tuple[Operator, ...]
    light_checks: Tuple[Operator, ...]
    heavy_matmul: Operator
    heavy_check: Operator


def lower_triangle(
    database: Database,
    omega: float,
    threshold: Optional[int] = None,
) -> Tuple[Program, TriangleRoles]:
    """Figure 1 as an IR DAG: three light join branches plus the heavy MM."""
    r = Scan("R", ("X", "Y"))
    s = Scan("S", ("Y", "Z"))
    t = Scan("T", ("X", "Z"))
    n = max(len(database["R"]), len(database["S"]), len(database["T"]), 1)
    delta = threshold if threshold is not None else triangle_threshold(n, omega)

    heavy_x = HeavyPart(r, ("X",), delta)
    heavy_y = HeavyPart(s, ("Y",), delta)
    heavy_z = HeavyPart(t, ("Z",), delta)
    light_joins = []
    light_checks = []
    for source, heavy, closing, missing in (
        (r, heavy_x, t, s),  # Q_{ℓ,1}: T(X,Z) ⋈ R_ℓ(X,Y), then check S(Y,Z)
        (s, heavy_y, r, t),  # Q_{ℓ,2}: R(X,Y) ⋈ S_ℓ(Y,Z), then check T(X,Z)
        (t, heavy_z, s, r),  # Q_{ℓ,3}: S(Y,Z) ⋈ T_ℓ(Z,X), then check R(X,Y)
    ):
        joined = Join(closing, Antijoin(source, heavy))
        light_joins.append(joined)
        light_checks.append(NonEmpty(Semijoin(joined, missing)))

    m1 = Semijoin(Semijoin(r, heavy_x), heavy_y)
    m2 = Semijoin(Semijoin(s, heavy_y), heavy_z)
    mm = GroupedMatMul(m1, m2, ("X",), ("Y",), ("Z",))
    heavy_check = NonEmpty(Semijoin(_project(t, ("X", "Z")), mm))

    root = Any_(tuple(light_checks) + (heavy_check,))
    roles = TriangleRoles(
        threshold=delta,
        light_joins=tuple(light_joins),
        light_checks=tuple(light_checks),
        heavy_matmul=mm,
        heavy_check=heavy_check,
    )
    return Program(root, source="triangle-figure1"), roles


# ----------------------------------------------------------------------
# 4-cycle (adaptive degree split)
# ----------------------------------------------------------------------
@dataclass
class FourCycleRoles:
    """Operators whose traces reconstruct the adaptive 4-cycle report."""

    threshold: int
    light_sides: Tuple[Operator, ...]
    matmuls: Tuple[Operator, ...]


def _lower_two_paths(
    left: Operator,
    right: Operator,
    middle: str,
    endpoints: Tuple[str, str],
    delta: int,
) -> Tuple[Operator, Operator, Tuple[Operator, ...]]:
    """The endpoint pairs connected through ``middle``, split by its degree.

    Returns ``(light pairs, heavy pairs, light sides)``.  A middle value is
    light when it is heavy on neither side: light values expand through a
    join, heavy ones through one Boolean matrix product.
    """
    first, second = endpoints
    middle_values = Semijoin(_project(left, (middle,)), _project(right, (middle,)))
    light = Antijoin(
        Antijoin(middle_values, HeavyPart(left, (middle,), delta)),
        HeavyPart(right, (middle,), delta),
    )
    heavy = Antijoin(middle_values, light)
    light_sides = (Semijoin(left, light), Semijoin(right, light))
    light_pairs = _project(Join(*light_sides), (first, second))
    heavy_pairs = GroupedMatMul(
        Semijoin(left, heavy), Semijoin(right, heavy), (first,), (middle,), (second,)
    )
    return light_pairs, heavy_pairs, light_sides


def lower_four_cycle(
    database: Database,
    omega: float,
    threshold: Optional[int] = None,
) -> Tuple[Program, FourCycleRoles]:
    """The adaptive 4-cycle strategy (Lemma C.9) as an IR DAG.

    Both sides of the cycle split their middle variable (``Y``, ``W``) into
    light and heavy values; the answer is whether any of the four
    (Y-part, W-part) pairs of X–Z relations meet, light × light first.
    """
    r = Scan("R", ("X", "Y"))
    s = Scan("S", ("Y", "Z"))
    t = Scan("T", ("Z", "W"))
    u = Scan("U", ("W", "X"))
    n = max(len(database["R"]), len(database["S"]), len(database["T"]), len(database["U"]), 1)
    delta = threshold if threshold is not None else triangle_threshold(n, omega)

    light_y, heavy_y, sides_y = _lower_two_paths(r, s, "Y", ("X", "Z"), delta)
    light_w, heavy_w, sides_w = _lower_two_paths(u, t, "W", ("X", "Z"), delta)
    checks = tuple(
        NonEmpty(Semijoin(y_part, w_part))
        for y_part in (light_y, heavy_y)
        for w_part in (light_w, heavy_w)
    )
    roles = FourCycleRoles(
        threshold=delta,
        light_sides=sides_y + sides_w,
        matmuls=(heavy_y, heavy_w),
    )
    return Program(Any_(checks), source="four-cycle-adaptive"), roles


# ----------------------------------------------------------------------
# k-clique (Nešetřil–Poljak)
# ----------------------------------------------------------------------
def _compatible_pairs(adjacency: np.ndarray, left, right) -> List[np.ndarray]:
    """The ``(i, j)`` index pairs whose cliques are fully adjacent: one AND
    of adjacency sub-matrices per position pair (with a ``False`` diagonal,
    also disjoint).  A zero-width group (``[()]``) fits everything."""
    left_array, right_array = (
        np.asarray(group, dtype=np.int64).reshape(len(group), len(group[0]) if group else 0)
        for group in (left, right)
    )
    fits = np.ones((len(left), len(right)), dtype=bool)
    for p in range(left_array.shape[1]):
        for q in range(right_array.shape[1]):
            fits &= adjacency[np.ix_(left_array[:, p], right_array[:, q])]
    return list(np.nonzero(fits))


def lower_clique(
    group_a: Sequence[Tuple[int, ...]],
    group_b: Sequence[Tuple[int, ...]],
    group_c: Sequence[Tuple[int, ...]],
    adjacency: np.ndarray,
) -> Tuple[Program, Database]:
    """The three-way clique split as a triangle over compatible-clique relations.

    The groups (cliques of sizes ⌈k/3⌉, ⌈(k-1)/3⌉, ⌊k/3⌋, as vertex indices
    into the dense Boolean ``adjacency`` matrix, whose diagonal is
    ``False``) are enumerated by the caller; this builds the pairwise
    compatibility relations ``AB``, ``BC``, ``AC`` over group indices —
    vertex-disjoint and fully adjacent — and lowers the detection to
    ``NonEmpty(AC ⋉ GroupedMatMul(AB; B; BC))`` — exactly the GVEO σ = (A, B, C)
    with MM term ``MM(B; C; A)`` of Lemma C.8.
    """
    from ..db.relation import Relation

    compat_db = Database(
        {
            name: Relation.from_columns(schema, _compatible_pairs(adjacency, left, right))
            for name, schema, left, right in (
                ("AB", ("A", "B"), group_a, group_b),
                ("BC", ("B", "C"), group_b, group_c),
                ("AC", ("A", "C"), group_a, group_c),
            )
        }
    )
    mm = GroupedMatMul(Scan("AB", ("A", "B")), Scan("BC", ("B", "C")), ("A",), ("B",), ("C",))
    root = NonEmpty(Semijoin(Scan("AC", ("A", "C")), mm))
    return Program(root, source="clique-mm"), compat_db
