"""The physical-operator IR: a hashable DAG of execution operators.

Every strategy in the library — naive pairwise joins, GenericJoin,
Yannakakis, and the paper's ω-query plans, plus the triangle/4-cycle/clique
specializations — *lowers* to this one representation
(:mod:`repro.exec.lower`) and executes on one instrumented virtual machine
(:mod:`repro.exec.vm`).  An operator node declares

* its ``children`` (the DAG edges),
* its ``schema`` — the output column names, inferred at construction, so
  the whole program is type-checked before anything executes, and
* its ``skey`` — a *name-insensitive* structural key.

The structural key encodes variable names only through their **positions**
in the child schemas.  Two nodes with equal ``skey`` therefore compute the
same relation up to a positional renaming of the output columns — this is
the invariant behind cross-query sharing: when two isomorphic queries in an
:meth:`~repro.api.QueryEngine.ask_many` batch semijoin the same relation
the same way under different variable names, both subplans carry the same
``skey`` and the second one is served from the VM's bounded
intermediate-result cache.

Fourteen operator classes cover every strategy: the leaf :class:`Scan`;
the relational :class:`Project` (and its :class:`Distinct` sink),
:class:`HeavyPart`, :class:`Join`, :class:`Semijoin`, :class:`Antijoin`,
:class:`GroupedMatMul` and :class:`Wcoj`; the output sinks :class:`Count`
and :class:`Enumerate`; and the Boolean :class:`NonEmpty`, :class:`Any_`
and :class:`All_`.  The paper's heavy/light split needs nothing more:
:class:`HeavyPart` is the degree filter, the light rows are an
:class:`Antijoin` with it and the heavy operands a :class:`Semijoin`.

Nodes are frozen dataclasses: equality and hashing are structural (and
name-sensitive), so a subtree built twice is one node to the VM's per-run
memo, to :meth:`Program.nodes` and to the optimizer's rewrite memo, and
evaluates once; ``schema``/``skey``/``children`` are derived attributes
computed once in ``__post_init__``.

Each operator is declared once, by its dataclass fields.
:meth:`Operator.rebuild` and :meth:`Operator.rename` read the fields'
declared types: an ``Operator`` or ``Tuple[Operator, ...]`` field is an
input (so is an ``Optional[Operator]`` field that is set), a
``Variable``, ``Schema`` or ``Optional[Schema]`` field names variables,
and every other field is kept as is.  A new operator class
needs nothing in the optimizer or the renaming code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

Variable = str
Schema = Tuple[Variable, ...]
StructuralKey = Tuple

#: What :meth:`Operator.rename` does with a field, by its declared type
#: (the source text of the annotation under postponed evaluation).
_FIELD_ROLES = {
    "Operator": "input",
    "Optional[Operator]": "input",
    "Tuple[Operator, ...]": "inputs",
    "Variable": "variable",
    "Schema": "variables",
    "Optional[Schema]": "variables",
}


@functools.lru_cache(maxsize=None)
def _field_roles(cls: type) -> Tuple[Tuple[str, Optional[str]], ...]:
    """``(field name, role or None)`` for each dataclass field of ``cls``, in order."""
    return tuple((field.name, _FIELD_ROLES.get(field.type)) for field in fields(cls))


def _positions(schema: Schema, variables: Schema, what: str) -> Tuple[int, ...]:
    try:
        return tuple(schema.index(v) for v in variables)
    except ValueError:
        missing = [v for v in variables if v not in schema]
        raise ValueError(f"{what}: variables {missing} not in schema {schema}") from None


def _shared_pairs(left: Schema, right: Schema) -> Tuple[Tuple[int, int], ...]:
    """(left position, right position) for every shared variable, in left order."""
    return tuple(
        (i, right.index(v)) for i, v in enumerate(left) if v in right
    )


def _operator_inputs(node: "Operator") -> Tuple["Operator", ...]:
    """The operator-valued declared fields, before ``children`` is derived."""
    inputs: List[Operator] = []
    for field in fields(node):  # type: ignore[arg-type]
        value = getattr(node, field.name, None)
        if isinstance(value, Operator):
            inputs.append(value)
        elif isinstance(value, tuple):
            inputs.extend(item for item in value if isinstance(item, Operator))
    return tuple(inputs)


def _describe_inputs(inputs: Tuple["Operator", ...]) -> str:
    if not inputs:
        return "none"
    return "; ".join(
        "bool" if node.boolean else f"({', '.join(node.schema)})"
        for node in inputs
    )


def _with_input_context(post_init):
    """Wrap a ``__post_init__`` so validation errors carry input schemas.

    The construction-time checks raise from deep helpers that only see a
    fragment of the node; every subclass's ``__post_init__`` is wrapped at
    class-creation time so the surfaced message always names the operator
    class and the schemas of its operand subplans.
    """

    @functools.wraps(post_init)
    def wrapped(self) -> None:
        try:
            post_init(self)
        except ValueError as error:
            raise ValueError(
                f"{error} [in {type(self).__name__}; input schemas: "
                f"{_describe_inputs(_operator_inputs(self))}]"
            ) from None

    return wrapped


class Operator:
    """Base class for IR nodes.

    Subclasses are frozen dataclasses; ``__post_init__`` populates the
    derived attributes below via ``object.__setattr__``.
    """

    #: Output column names (empty for Boolean-valued operators).
    schema: Schema
    #: Child operators, in evaluation order.
    children: Tuple["Operator", ...]
    #: Name-insensitive structural key (see module docstring).
    skey: StructuralKey
    #: Whether the operator produces a Boolean instead of a relation.
    boolean: bool = False
    #: Whether the operator produces a scalar (an ``int``) instead of a
    #: relation — the counting sink.  Scalar operators, like Boolean ones,
    #: can only appear at the root of a program.
    scalar: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        post_init = cls.__dict__.get("__post_init__")
        if post_init is not None:
            cls.__post_init__ = _with_input_context(post_init)

    def _derive(
        self, schema: Schema, children: Tuple["Operator", ...], skey: StructuralKey
    ) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "skey", skey)

    def validate(self, program: Optional["Program"] = None) -> None:
        """Re-run the construction-time checks (and re-derive the schema).

        Used by the static plan verifier: a node rebuilt by a rewrite
        pass, or mutated through ``object.__setattr__``, re-proves its
        own well-formedness here.  Errors carry the input schemas (via
        the wrapped ``__post_init__``) and — when a ``program`` is given
        — the operator's ``#id`` position in ``program.describe()``.
        """
        post_init = getattr(self, "__post_init__", None)
        if post_init is None:  # pragma: no cover - every subclass has one
            return
        try:
            post_init()
        except ValueError as error:
            message = str(error)
            if program is not None:
                node_id = program.node_ids().get(self)
                if node_id is not None:
                    message = (
                        f"operator #{node_id} of the program failed "
                        f"validation: {message}"
                    )
            raise ValueError(message) from None

    def rebuild(self, transform: Callable[["Operator"], "Operator"]) -> "Operator":
        """This operator, of its own class, over ``transform`` of each input.

        Every other field is kept, so a :class:`Distinct` stays a Distinct
        and an :class:`Enumerate` keeps its ``parents``.  Returns ``self``
        when every input comes back as the same object.
        """
        return self.rename({}, transform)

    def rename(
        self, mapping: Mapping[str, str], transform: Callable[["Operator"], "Operator"]
    ) -> "Operator":
        """:meth:`rebuild`, with every variable-naming field renamed through ``mapping``.

        Relation names, thresholds, limits and parent indices are not
        variables and stay; an ``Optional[Schema]`` field left ``None``
        stays ``None``.
        """
        values = []
        same = True
        for name, role in _field_roles(type(self)):
            value = getattr(self, name)
            if role == "input" and value is not None:
                new = transform(value)
                same = same and new is value
            elif role == "inputs":
                new = tuple(transform(node) for node in value)
                same = same and all(a is b for a, b in zip(new, value))
            elif role == "variable":
                new = mapping.get(value, value)
                same = same and new == value
            elif role == "variables" and value is not None:
                new = tuple(mapping.get(v, v) for v in value)
                same = same and new == value
            else:
                new = value
            values.append(new)
        return self if same else type(self)(*values)

    @property
    def variables(self) -> frozenset:
        return frozenset(self.schema)

    def label(self) -> str:  # pragma: no cover - overridden by subclasses
        return type(self).__name__

    def kind(self) -> str:
        """A short lower-case operator-kind tag (used in traces and tests)."""
        return type(self).__name__.lower()


def _require_relational(node: Operator, what: str) -> None:
    if node.boolean:
        raise ValueError(f"{what} requires a relational input, got {node.kind()}")


def _require_boolean(node: Operator, what: str) -> None:
    if not node.boolean:
        raise ValueError(f"{what} requires Boolean inputs, got {node.kind()}")


# ----------------------------------------------------------------------
# Leaf
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scan(Operator):
    """Read one database relation, columns renamed positionally to ``variables``."""

    relation: str
    variables_out: Schema

    def __post_init__(self) -> None:
        if len(set(self.variables_out)) != len(self.variables_out):
            raise ValueError(f"duplicate scan variables {self.variables_out}")
        self._derive(
            schema=tuple(self.variables_out),
            children=(),
            skey=("scan", self.relation, len(self.variables_out)),
        )

    def label(self) -> str:
        return f"Scan {self.relation}({', '.join(self.schema)})"


# ----------------------------------------------------------------------
# Unary relational operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Project(Operator):
    """Project onto ``variables_out`` (set semantics: duplicates collapse)."""

    child: Operator
    variables_out: Schema

    def __post_init__(self) -> None:
        _require_relational(self.child, "Project")
        positions = _positions(self.child.schema, self.variables_out, "Project")
        self._derive(
            schema=tuple(self.variables_out),
            children=(self.child,),
            skey=("project", self.child.skey, positions),
        )

    def label(self) -> str:
        return f"Project[{', '.join(self.schema) or '()'}]"


@dataclass(frozen=True)
class Distinct(Project):
    """Distinct projection onto the query's output variables.

    Semantically identical to :class:`Project` (all relations here use set
    semantics) and it inherits Project's structural key, so an enumeration
    program shares cached intermediates with any projection computing the
    same tuples — but it is a distinct node class with its own label/kind,
    marking the *output sink* of a ``select`` program in traces and
    ``explain`` output.
    """

    def label(self) -> str:
        return f"Distinct[{', '.join(self.schema) or '()'}]"


@dataclass(frozen=True)
class HeavyPart(Operator):
    """Bindings of ``given`` whose degree into the rest exceeds ``threshold``.

    The database interpretation of the proof-sequence decomposition step
    (Figure 1): the output is the heavy keys *projected onto* ``given``.
    """

    child: Operator
    given: Schema
    threshold: int

    def __post_init__(self) -> None:
        _require_relational(self.child, "HeavyPart")
        positions = _positions(self.child.schema, self.given, "HeavyPart")
        self._derive(
            schema=tuple(self.given),
            children=(self.child,),
            skey=("heavy", self.child.skey, positions, self.threshold),
        )

    def label(self) -> str:
        return f"Heavy[{', '.join(self.given)} > {self.threshold}]"


# ----------------------------------------------------------------------
# Binary / n-ary relational operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Join(Operator):
    """Natural join; output schema is left's columns then right's new columns."""

    left: Operator
    right: Operator

    def __post_init__(self) -> None:
        _require_relational(self.left, "Join")
        _require_relational(self.right, "Join")
        pairs = _shared_pairs(self.left.schema, self.right.schema)
        extras = tuple(v for v in self.right.schema if v not in self.left.schema)
        self._derive(
            schema=self.left.schema + extras,
            children=(self.left, self.right),
            skey=("join", self.left.skey, self.right.skey, pairs),
        )

    def label(self) -> str:
        return "Join"


@dataclass(frozen=True)
class Semijoin(Operator):
    """Keep left rows whose shared-variable projection appears in the reducer."""

    child: Operator
    reducer: Operator

    def __post_init__(self) -> None:
        _require_relational(self.child, "Semijoin")
        _require_relational(self.reducer, "Semijoin")
        pairs = _shared_pairs(self.child.schema, self.reducer.schema)
        self._derive(
            schema=self.child.schema,
            children=(self.child, self.reducer),
            skey=("semijoin", self.child.skey, self.reducer.skey, pairs),
        )

    def label(self) -> str:
        return "Semijoin"


@dataclass(frozen=True)
class Antijoin(Operator):
    """Keep left rows whose shared-variable projection does NOT appear in the reducer."""

    child: Operator
    reducer: Operator

    def __post_init__(self) -> None:
        _require_relational(self.child, "Antijoin")
        _require_relational(self.reducer, "Antijoin")
        pairs = _shared_pairs(self.child.schema, self.reducer.schema)
        self._derive(
            schema=self.child.schema,
            children=(self.child, self.reducer),
            skey=("antijoin", self.child.skey, self.reducer.skey, pairs),
        )

    def label(self) -> str:
        return "Antijoin"


# ----------------------------------------------------------------------
# Matrix-multiplication operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupedMatMul(Operator):
    """A Boolean matrix product per binding of shared group-by variables.

    Realizes an ω-query-plan MM elimination step ``MM(first; second;
    block | group_by)``: for each binding of ``group_variables`` (shared by
    both sides) the two sides are multiplied as matrices over
    ``row_variables × inner_variables`` and ``inner_variables ×
    col_variables``; side-specific group-by variables ride along on the
    outer dimensions (they are baked into row/col variables by lowering).
    With no group variables (the default) it is one plain product, the
    form the triangle, 4-cycle and clique lowerings emit.

    With a ``mask`` — an input whose variables include every row, column
    and group variable — the product is only looked up, not listed: the
    output is the mask's rows (over the mask's schema, in its row order)
    whose (row, col, group) projection is a nonzero entry, which as a set
    is ``Join(mask, product)``.  That is Figure 1's last step, the closing
    relation's pairs checked against ``M = R·S``.
    """

    left: Operator
    right: Operator
    row_variables: Schema
    inner_variables: Schema
    col_variables: Schema
    group_variables: Schema = ()
    mask: Optional[Operator] = None

    def __post_init__(self) -> None:
        _require_relational(self.left, "GroupedMatMul")
        _require_relational(self.right, "GroupedMatMul")
        row_positions = _positions(self.left.schema, self.row_variables, "GroupedMatMul rows")
        inner_left = _positions(self.left.schema, self.inner_variables, "GroupedMatMul inner")
        inner_right = _positions(self.right.schema, self.inner_variables, "GroupedMatMul inner")
        col_positions = _positions(self.right.schema, self.col_variables, "GroupedMatMul cols")
        group_left = _positions(self.left.schema, self.group_variables, "GroupedMatMul group")
        group_right = _positions(self.right.schema, self.group_variables, "GroupedMatMul group")
        schema = (
            tuple(self.row_variables) + tuple(self.col_variables) + tuple(self.group_variables)
        )
        skey = (
            "grouped_matmul",
            self.left.skey,
            self.right.skey,
            row_positions,
            inner_left,
            inner_right,
            col_positions,
            group_left,
            group_right,
        )
        children = (self.left, self.right)
        if self.mask is not None:
            _require_relational(self.mask, "GroupedMatMul mask")
            skey += (self.mask.skey, _positions(self.mask.schema, schema, "GroupedMatMul mask"))
            # The VM reads the mask first: an empty one skips the product.
            schema, children = self.mask.schema, (self.mask,) + children
        self._derive(schema=schema, children=children, skey=skey)

    def label(self) -> str:
        group = ",".join(self.group_variables)
        return (
            f"GroupedMatMul[{','.join(self.row_variables)} ; "
            f"{','.join(self.inner_variables)} ; {','.join(self.col_variables)}"
            + (f" | {group}]" if group else "]")
            + (" at mask" if self.mask is not None else "")
        )


# ----------------------------------------------------------------------
# Worst-case-optimal search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Wcoj(Operator):
    """GenericJoin: one intersection per variable, in ``variable_order``.

    The worst-case optimal join lowers to a single operator.  Its kernel
    (:meth:`~repro.db.backends.ColumnarBackend.wcoj`) extends a batch of
    bindings by one variable at a time on dictionary codes, each binding
    from the input with the fewest candidates, and stops at the first
    complete binding when ``find_all`` is false.
    """

    inputs: Tuple[Operator, ...]
    variable_order: Schema
    find_all: bool

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("Wcoj needs at least one input")
        covered: set = set()
        for node in self.inputs:
            _require_relational(node, "Wcoj")
            covered |= set(node.schema)
        if set(self.variable_order) != covered:
            raise ValueError(
                f"Wcoj order {self.variable_order} must cover exactly the "
                f"input variables {sorted(covered)}"
            )
        per_variable = tuple(
            tuple(
                (i, node.schema.index(v))
                for i, node in enumerate(self.inputs)
                if v in node.schema
            )
            for v in self.variable_order
        )
        self._derive(
            schema=tuple(self.variable_order),
            children=tuple(self.inputs),
            skey=(
                "wcoj",
                tuple(node.skey for node in self.inputs),
                per_variable,
                self.find_all,
            ),
        )

    def label(self) -> str:
        mode = "all" if self.find_all else "first"
        return f"Wcoj[{' -> '.join(self.variable_order)}; {mode}]"


# ----------------------------------------------------------------------
# Output sinks (the engine's count / select verbs)
# ----------------------------------------------------------------------
def _check_parents(what: str, parents: Tuple[int, ...], frontiers: Tuple) -> None:
    """``parents[i]`` indexes frontier ``i``'s tree parent in ``[child, *frontiers]``."""
    if len(parents) != len(frontiers):
        raise ValueError(
            f"{what} parents {parents} must name one parent "
            f"per frontier ({len(frontiers)} frontiers)"
        )
    for index, parent in enumerate(parents):
        if not 0 <= parent <= index:
            raise ValueError(
                f"{what} parent {parent} of frontier {index} must "
                "point at an earlier sequence position"
            )


def _tree_schema(child: Operator, frontiers: Tuple[Operator, ...]) -> Tuple[Schema, Tuple]:
    """The root-first join schema over ``[child, *frontiers]``, and each
    frontier's shared-variable pairs with the columns before it."""
    joined = tuple(child.schema)
    shared = []
    for frontier in frontiers:
        shared.append(_shared_pairs(joined, tuple(frontier.schema)))
        joined += tuple(v for v in frontier.schema if v not in joined)
    return joined, tuple(shared)


@dataclass(frozen=True)
class Count(Operator):
    """The number of distinct ``variables_out`` tuples of the child (an int).

    Without ``frontiers`` it counts the child's distinct projections
    without materializing them (the columnar backend: one ``np.unique``
    over code rows); an empty ``variables_out`` counts ``1`` for a
    nonempty child, else ``0``.  With ``frontiers`` (the tree form, laid
    out as :class:`Enumerate`'s: the child is the root, ``parents[i]``
    indexes frontier ``i``'s parent in ``[child, *frontiers]``) it counts
    the tuples of their join by multiplicities, bottom-up per tree edge
    (:meth:`~repro.db.relation.Relation.count_join_tree`), joining nothing.
    That is the distinct-output count only when ``variables_out`` holds
    every tree variable (relations are sets) — the verifier checks it.
    """

    child: Operator
    variables_out: Schema
    frontiers: Tuple[Operator, ...] = ()
    parents: Tuple[int, ...] = ()
    scalar = True

    def __post_init__(self) -> None:
        _require_relational(self.child, "Count")
        for frontier in self.frontiers:
            _require_relational(frontier, "Count frontier")
        _check_parents("Count", self.parents, self.frontiers)
        joined, shared = _tree_schema(self.child, self.frontiers)
        positions = _positions(joined, self.variables_out, "Count")
        skey: StructuralKey = ("count", self.child.skey, positions)
        if self.frontiers:
            skey += (tuple(f.skey for f in self.frontiers), shared, self.parents)
        self._derive(
            schema=(),
            children=(self.child,) + tuple(self.frontiers),
            skey=skey,
        )

    def label(self) -> str:
        tree = "; by multiplicities" if self.frontiers else ""
        return f"Count[{', '.join(self.variables_out) or '()'}{tree}]"


#: Enumeration orders an :class:`Enumerate` sink may declare.  ``sorted``
#: is the deterministic total order the API has always promised;
#: ``stream`` emits tuples in discovery order with constant delay;
#: ``ranked`` emits tuples *in* the sorted order incrementally — the
#: any-k frontier-heap enumeration, so a sorted ``limit=k`` costs
#: ~``exists`` + O(k log n) instead of a full scan.
ENUMERATION_ORDERS = ("sorted", "stream", "ranked")


@dataclass(frozen=True)
class Enumerate(Operator):
    """The enumeration sink: where a ``select`` program emits output tuples.

    Two modes share the node:

    * **Pass-through** (no ``frontiers``): the child — typically a
      :class:`Distinct` — already holds the distinct output tuples; this
      node marks where the engine's
      :class:`~repro.api.results.ResultSet` attaches to stream them.
    * **Streaming** (``frontiers`` non-empty): the child is the *root* of
      a calibrated Yannakakis join tree and ``frontiers`` are the
      remaining calibrated relations in top-down join order.  The VM does
      not materialize the enumeration join; it hands back a pull-driven
      cursor that chunks the root, joins each chunk through the frontiers
      with early projection onto ``variables_out`` plus still-needed join
      keys, and — when ``order == "stream"`` — stops as soon as ``limit``
      distinct tuples have been produced.

    ``order == "ranked"`` selects the any-k enumeration instead: the
    cursor (:class:`~repro.exec.vm.RankedEnumerationStream`) emits the
    output tuples in the deterministic sorted order directly, popping the
    globally next tuple off a frontier heap.  The ranking key spec is
    ``variables_out`` itself — the lexicographic value order over the
    output columns — and ``parents`` carries the join-tree shape the heap
    expansions need: for each frontier, the index of its tree parent in
    the combined ``[child, *frontiers]`` sequence (parents always precede
    children).  Empty ``parents`` with frontiers present means the VM
    derives parents from shared variables (hand-built nodes).

    ``limit`` and ``order`` are part of the structural key, so programs
    enumerating different prefixes never collide in any cache; the node
    itself is exempt from the VM's result cache either way — what caching
    shares are its *children*, the calibrated (limit-independent) reducer
    state.
    """

    child: Operator
    frontiers: Tuple[Operator, ...] = ()
    variables_out: Optional[Schema] = None
    limit: Optional[int] = None
    order: str = "sorted"
    parents: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _require_relational(self.child, "Enumerate")
        for frontier in self.frontiers:
            _require_relational(frontier, "Enumerate frontier")
        if self.order not in ENUMERATION_ORDERS:
            raise ValueError(
                f"Enumerate order must be one of {ENUMERATION_ORDERS}, "
                f"got {self.order!r}"
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError("Enumerate limit must be non-negative")
        if self.parents:
            _check_parents("Enumerate", self.parents, self.frontiers)
        # Outputs must live in the virtual schema of the top-down join.
        joined, shared = _tree_schema(self.child, self.frontiers)
        outputs = (
            tuple(self.variables_out)
            if self.variables_out is not None
            else tuple(self.child.schema)
        )
        positions = _positions(joined, outputs, "Enumerate")
        self._derive(
            schema=outputs,
            children=(self.child,) + tuple(self.frontiers),
            skey=(
                "enumerate",
                self.child.skey,
                tuple(f.skey for f in self.frontiers),
                shared,
                positions,
                self.order,
                self.limit,
                self.parents,
            ),
        )

    @property
    def streaming(self) -> bool:
        """Whether the VM should hand back a pull cursor instead of a relation.

        ``sorted`` delivery always materializes (a sorted *prefix* is the
        result set's bounded ``nsmallest`` over the materialized output);
        ``stream``/``ranked`` — and any frontier node — hand back a cursor.
        """
        return bool(self.frontiers) or self.order != "sorted"

    def label(self) -> str:
        mode = ""
        if self.streaming:
            bound = "" if self.limit is None else f" limit={self.limit}"
            mode = f"; {self.order}{bound}"
        return f"Enumerate[{', '.join(self.schema) or '()'}{mode}]"


# ----------------------------------------------------------------------
# Boolean-valued operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NonEmpty(Operator):
    """``True`` iff the child relation has at least one row."""

    child: Operator
    boolean = True

    def __post_init__(self) -> None:
        _require_relational(self.child, "NonEmpty")
        self._derive(schema=(), children=(self.child,), skey=("nonempty", self.child.skey))

    def label(self) -> str:
        return "NonEmpty"


@dataclass(frozen=True)
class Any_(Operator):
    """Boolean OR over Boolean children (evaluated left-to-right, short-circuit)."""

    inputs: Tuple[Operator, ...]
    boolean = True

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("Any needs at least one input")
        for node in self.inputs:
            _require_boolean(node, "Any")
        self._derive(
            schema=(),
            children=tuple(self.inputs),
            skey=("any", tuple(node.skey for node in self.inputs)),
        )

    def kind(self) -> str:
        return "any"

    def label(self) -> str:
        return f"Any[{len(self.inputs)}]"


@dataclass(frozen=True)
class All_(Operator):
    """Boolean AND over Boolean children (short-circuit); ``All[()]`` is ``True``."""

    inputs: Tuple[Operator, ...]
    boolean = True

    def __post_init__(self) -> None:
        for node in self.inputs:
            _require_boolean(node, "All")
        self._derive(
            schema=(),
            children=tuple(self.inputs),
            skey=("all", tuple(node.skey for node in self.inputs)),
        )

    def kind(self) -> str:
        return "all"

    def label(self) -> str:
        return f"All[{len(self.inputs)}]"


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
@dataclass
class Program:
    """A lowered query: one root operator plus the DAG hanging off it."""

    root: Operator
    #: Human-readable origin tag ("naive", "yannakakis", "omega-plan", ...).
    source: str = "unknown"

    def nodes(self) -> List[Operator]:
        """All distinct operators in topological order (children first)."""
        seen: Dict[Operator, None] = {}

        def visit(node: Operator) -> None:
            if node in seen:
                return
            for child in node.children:
                visit(child)
            seen[node] = None

        visit(self.root)
        return list(seen)

    def node_ids(self) -> Dict[Operator, int]:
        """A stable 1-based numbering of the DAG nodes (topological order)."""
        return {node: i + 1 for i, node in enumerate(self.nodes())}

    def describe(self) -> str:
        """Render the DAG, one numbered operator per line."""
        ids = self.node_ids()
        lines = []
        for node, node_id in ids.items():
            refs = ", ".join(f"#{ids[child]}" for child in node.children)
            if node.boolean:
                out = "bool"
            elif node.scalar:
                out = "int"
            else:
                out = f"({', '.join(node.schema)})"
            suffix = f"({refs}) -> {out}" if refs else f" -> {out}"
            lines.append(f"#{node_id} {node.label()}{suffix}")
        return "\n".join(lines)

    def rename(self, mapping: Mapping[str, str]) -> "Program":
        """The same program over renamed variables (relation names unchanged)."""
        memo: Dict[Operator, Operator] = {}

        def visit(node: Operator) -> Operator:
            renamed = memo.get(node)
            if renamed is None:
                renamed = memo[node] = node.rename(mapping, visit)
            return renamed

        return Program(visit(self.root), source=self.source)

    def __len__(self) -> int:
        return len(self.nodes())
