"""Conjunctive queries (Boolean and output-producing) and a Datalog parser.

A conjunctive query is a conjunction of atoms ``R(X, Y, ...)`` plus a tuple
of *free* (output) variables declared in the rule head.  An empty head —
``Q() :- ...`` — is the Boolean case of Eq. (1), asking whether a
satisfying assignment exists; a non-empty head ``Q(X, Z) :- ...`` asks for
the distinct output tuples (the engine's ``count`` and ``select`` verbs).
The query object carries its hypergraph (used by the width machinery and
the planner) and knows how to validate itself against a database.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..hypergraph.hypergraph import Hypergraph

#: A canonical shape signature: the sorted tuple of atom scopes after the
#: variables have been renamed to canonical names ``v0, v1, ...``.
ShapeSignature = Tuple[Tuple[str, ...], ...]

#: Canonicalization tries at most this many variable orderings (the product
#: of the factorials of the refinement-class sizes); beyond it a
#: deterministic name-based tie-break is used instead, which still yields a
#: consistent signature for *identical* queries but may distinguish some
#: isomorphic ones.
CANONICAL_SEARCH_LIMIT = 5040


@dataclass(frozen=True)
class Atom:
    """A single query atom ``relation(variables...)``."""

    relation: str
    variables: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("atoms must mention at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(
                f"repeated variables within one atom are not supported: {self.variables}"
            )

    @property
    def variable_set(self) -> FrozenSet[str]:
        return frozenset(self.variables)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: a named conjunction of atoms plus free variables.

    ``output_variables`` is the tuple of *free* variables from the rule
    head, in head order.  Empty (the default) means the Boolean query of
    Eq. (1); non-empty heads make the query output-producing — the engine's
    ``count`` and ``select`` verbs report/enumerate the distinct bindings
    of these variables over all satisfying assignments.
    """

    atoms: Tuple[Atom, ...]
    name: str = "Q"
    output_variables: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a query needs at least one atom")
        names = [atom.relation for atom in self.atoms]
        if len(set(names)) != len(names):
            raise ValueError(
                "atoms must use distinct relation names (self-joins should use "
                "renamed copies of the relation in the database)"
            )
        outputs = tuple(self.output_variables)
        object.__setattr__(self, "output_variables", outputs)
        if len(set(outputs)) != len(outputs):
            raise ValueError(f"repeated output variables: {outputs}")
        body = self.variables
        unknown = [v for v in outputs if v not in body]
        if unknown:
            raise ValueError(
                f"output variables {unknown} do not appear in the query body"
            )

    # ------------------------------------------------------------------
    @property
    def is_boolean(self) -> bool:
        """Whether the query has an empty head (no output variables)."""
        return not self.output_variables

    def with_outputs(self, variables: Sequence[str]) -> "ConjunctiveQuery":
        """The same body under a new head (output-variable tuple)."""
        return ConjunctiveQuery(self.atoms, self.name, tuple(variables))

    @property
    def variables(self) -> FrozenSet[str]:
        result: set = set()
        for atom in self.atoms:
            result |= atom.variable_set
        return frozenset(result)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(atom.relation for atom in self.atoms)

    def atom_for(self, relation: str) -> Atom:
        for atom in self.atoms:
            if atom.relation == relation:
                return atom
        raise KeyError(f"no atom over relation {relation!r}")

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph (vertices = variables, edges = atom scopes)."""
        return Hypergraph(
            self.variables, [atom.variables for atom in self.atoms]
        )

    def is_acyclic(self) -> bool:
        return self.hypergraph().is_acyclic()

    # ------------------------------------------------------------------
    # Canonical shape (plan-cache keys, isomorphic-batch grouping)
    # ------------------------------------------------------------------
    def canonical_mapping(self) -> Dict[str, str]:
        """A bijection from this query's variables to canonical names.

        Canonical names are ``v0, v1, ...``; two isomorphic queries (same
        atom scopes up to a variable renaming, relation names ignored) map
        onto the same canonical shape whenever the canonicalization search
        stays within :data:`CANONICAL_SEARCH_LIMIT` orderings.
        """
        return dict(_canonical_mapping_cached(self))

    def shape_signature(self) -> ShapeSignature:
        """The canonical shape: sorted atom scopes over canonical names.

        This is the hashable key used by the plan cache and by batch
        execution to recognise repeated query shapes — it is invariant
        under variable renaming and relation renaming (but preserves atom
        multiplicity, unlike the deduplicated hypergraph).
        """
        mapping = self.canonical_mapping()
        return tuple(
            sorted(
                tuple(sorted(mapping[v] for v in atom.variables))
                for atom in self.atoms
            )
        )

    def output_signature(self) -> Tuple[str, ...]:
        """The output variables in canonical name space (head order kept).

        Two queries sharing this *and* :meth:`shape_signature` are
        isomorphic as output queries (same body shape and the same
        free-variable positions under one witnessing renaming), so a
        cached counting/enumeration program for one would answer the other
        after a rename.  Note the engine's plan cache currently normalizes
        its output slot to ``()`` — only the exists-only ω strategy plans,
        and exists ignores heads — so today this signature serves
        verb-aware cache keys built by callers, not the plan cache itself.
        """
        mapping = self.canonical_mapping()
        return tuple(mapping[v] for v in self.output_variables)

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self.atoms)
        head = ", ".join(self.output_variables)
        return f"{self.name}({head}) :- {body}"


# ----------------------------------------------------------------------
# Canonicalization: colour refinement + bounded search
# ----------------------------------------------------------------------
def _refine_colors(
    variables: Sequence[str], edges: Sequence[FrozenSet[str]]
) -> Dict[str, int]:
    """Partition the variables by iterated structural colour refinement.

    Variables start coloured by the multiset of sizes of their incident
    edges; each round re-colours a variable by the multiset of (sorted)
    colour tuples of its incident edges.  The resulting colours are
    isomorphism-invariant class indices (0, 1, ...).
    """
    incident = {v: [e for e in edges if v in e] for v in variables}
    keys = {
        v: (len(incident[v]), tuple(sorted(len(e) for e in incident[v])))
        for v in variables
    }
    colors = _colors_from_keys(keys)
    while True:
        keys = {
            v: (
                colors[v],
                tuple(
                    sorted(
                        tuple(sorted(colors[u] for u in edge))
                        for edge in incident[v]
                    )
                ),
            )
            for v in variables
        }
        refined = _colors_from_keys(keys)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _colors_from_keys(keys: Dict[str, tuple]) -> Dict[str, int]:
    ordered = sorted(set(keys.values()))
    index = {key: position for position, key in enumerate(ordered)}
    return {v: index[keys[v]] for v in keys}


def _signature_for_order(
    order: Sequence[str], scopes: Sequence[FrozenSet[str]]
) -> ShapeSignature:
    mapping = {v: f"v{position}" for position, v in enumerate(order)}
    return tuple(sorted(tuple(sorted(mapping[v] for v in scope)) for scope in scopes))


@lru_cache(maxsize=512)
def _canonical_mapping_cached(query: "ConjunctiveQuery") -> Tuple[Tuple[str, str], ...]:
    scopes = [atom.variable_set for atom in query.atoms]
    edges = sorted(set(scopes), key=sorted)
    variables = sorted(query.variables)
    colors = _refine_colors(variables, edges)
    classes: List[List[str]] = []
    for color in sorted(set(colors.values())):
        classes.append(sorted(v for v in variables if colors[v] == color))
    search_size = 1
    for cls in classes:
        search_size *= math.factorial(len(cls))
        if search_size > CANONICAL_SEARCH_LIMIT:
            break
    if search_size > CANONICAL_SEARCH_LIMIT:
        # Deterministic fallback: order within each class by name.  Exact
        # repeats of the same query still share a signature.
        order = [v for cls in classes for v in cls]
        return tuple(
            (v, f"v{position}") for position, v in enumerate(order)
        )
    best_order: Optional[Tuple[str, ...]] = None
    best_signature: Optional[ShapeSignature] = None
    for per_class in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        order = tuple(v for cls in per_class for v in cls)
        signature = _signature_for_order(order, scopes)
        if best_signature is None or signature < best_signature:
            best_signature = signature
            best_order = order
    assert best_order is not None
    return tuple((v, f"v{position}") for position, v in enumerate(best_order))


_ATOM_PATTERN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\s*\(([^()]*)\)")
_VARIABLE_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class QueryParseError(ValueError):
    """A query string could not be parsed.

    Besides the human-readable message, the error pinpoints the problem:

    * ``source`` — the full query text handed to :func:`parse_query`;
    * ``fragment`` — the offending piece of that text;
    * ``span`` — the ``(start, end)`` character range of the fragment in
      ``source``, so long queries can be annotated precisely.
    """

    def __init__(self, message: str, source: str, span: Tuple[int, int]) -> None:
        start, end = span
        start = max(0, min(start, len(source)))
        end = max(start, min(end, len(source)))
        self.source = source
        self.span = (start, end)
        self.fragment = source[start:end]
        super().__init__(
            f"{message} (at characters {start}..{end} of {source!r}: "
            f"{self.fragment!r})"
        )


def _fragment_span(source: str, start: int, end: int) -> Tuple[int, int]:
    """Trim a raw span to its non-whitespace core (keeps empty spans)."""
    fragment = source[start:end]
    stripped = fragment.strip()
    if stripped:
        offset = fragment.index(stripped[0])
        return start + offset, start + offset + len(stripped)
    return start, end


def _parse_head(
    text: str, head: str, default_name: Optional[str], strict: bool
) -> Tuple[Optional[str], Tuple[str, ...]]:
    """The head's query name and output-variable tuple.

    In strict mode the head must be empty, a bare identifier (a name-only
    head, the historical form) or exactly one ``Name(vars...)`` atom —
    anything else (a second head atom, trailing junk) raises
    :class:`QueryParseError`, the same contract the body enforces, since a
    silently dropped head fragment would silently change the output
    semantics of ``count``/``select``.
    """
    head_match = _ATOM_PATTERN.search(head)
    if head_match is None:
        name = head.strip() or None
        if strict and name is not None and not _VARIABLE_PATTERN.fullmatch(name):
            raise QueryParseError(
                f"malformed query head {name!r} (expected a name, 'Name(...)' "
                "or nothing); use strict=False to ignore",
                text,
                _fragment_span(text, 0, len(head)),
            )
        return default_name or name, ()
    name = default_name or head_match.group(1)
    raw = head_match.group(2)
    if strict:
        before = head[: head_match.start()]
        after = head[head_match.end():]
        if before.strip() or after.strip():
            junk_start, junk_end = (
                (0, head_match.start()) if before.strip() else (head_match.end(), len(head))
            )
            raise QueryParseError(
                "malformed query head: unparsed text "
                f"{(before.strip() or after.strip())!r} around the head atom; "
                "use strict=False to ignore",
                text,
                _fragment_span(text, junk_start, junk_end),
            )
        variables = [v.strip() for v in raw.split(",")] if raw.strip() else []
        for variable in variables:
            if not _VARIABLE_PATTERN.fullmatch(variable):
                raise QueryParseError(
                    f"malformed variable {(variable or '<empty>')!r} in the "
                    "query head",
                    text,
                    _fragment_span(text, head_match.start(2), head_match.end(2)),
                )
    else:
        variables = [v.strip() for v in raw.split(",") if v.strip()]
    return name, tuple(variables)


def parse_query(
    text: str, name: Optional[str] = None, *, strict: bool = True
) -> ConjunctiveQuery:
    """Parse a Datalog-style conjunctive query.

    Accepts a full rule — Boolean ``Q() :- R(X, Y), S(Y, Z)`` or
    output-producing ``Q(X, Z) :- R(X, Y), S(Y, Z)``, whose head variables
    become :attr:`ConjunctiveQuery.output_variables` (each must appear in
    the body) — or just the body ``R(X, Y), S(Y, Z)``.  Relation names and
    variables are identifiers (primes allowed, e.g. ``Z'``).

    In strict mode (the default) any non-whitespace text in the body that
    is not part of a well-formed atom — an unbalanced parenthesis, a
    dangling identifier, a stray token between atoms — raises
    :class:`QueryParseError` (a :class:`ValueError` carrying the offending
    source fragment and its character span) instead of being silently
    dropped, and every variable must be a single identifier.  Pass
    ``strict=False`` for the historical lenient behaviour.

    >>> q = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
    >>> q.output_variables
    ('X', 'Z')
    """
    head_name = name
    outputs: Tuple[str, ...] = ()
    body = text
    offset = 0
    if ":-" in text:
        head, body = text.split(":-", 1)
        offset = len(head) + 2
        head_name, outputs = _parse_head(text, head, head_name, strict)
    atoms = []
    cursor = 0
    first = True
    for match in _ATOM_PATTERN.finditer(body):
        if strict:
            _require_atom_separator(
                text, body, offset, cursor, match.start(),
                "leading" if first else "between",
            )
        first = False
        cursor = match.end()
        relation = match.group(1)
        atom_body = match.group(2)
        if strict and atom_body.strip():
            variables = [v.strip() for v in atom_body.split(",")]
            for variable in variables:
                if not _VARIABLE_PATTERN.fullmatch(variable):
                    shown = variable if variable else "<empty>"
                    raise QueryParseError(
                        f"malformed variable {shown!r} in atom "
                        f"{relation}({atom_body.strip()}); "
                        "use strict=False to ignore",
                        text,
                        _fragment_span(
                            text, offset + match.start(2), offset + match.end(2)
                        ),
                    )
        else:
            variables = [v.strip() for v in atom_body.split(",") if v.strip()]
        try:
            atoms.append(Atom(relation, tuple(variables)))
        except ValueError as error:
            raise QueryParseError(
                str(error),
                text,
                _fragment_span(text, offset + match.start(), offset + match.end()),
            ) from None
    if strict:
        _require_atom_separator(text, body, offset, cursor, len(body), "trailing")
    if not atoms:
        raise QueryParseError(
            f"could not parse any atoms from {text!r}", text, (0, len(text))
        )
    try:
        return ConjunctiveQuery(
            tuple(atoms), name=head_name or "Q", output_variables=outputs
        )
    except ValueError as error:
        raise QueryParseError(str(error), text, (0, len(text))) from None


#: What strict mode allows between atoms: exactly one comma ("leading" and
#: "trailing" gaps around the body allow only whitespace).
_SEPARATOR_PATTERNS = {
    "leading": re.compile(r"\s*"),
    "between": re.compile(r"\s*,\s*"),
    "trailing": re.compile(r"\s*"),
}


def _require_atom_separator(
    text: str, body: str, offset: int, start: int, end: int, position: str
) -> None:
    """Reject anything but the expected separator between matched atoms."""
    gap = body[start:end]
    if not _SEPARATOR_PATTERNS[position].fullmatch(gap):
        expected = (
            "a single comma" if position == "between" else "only whitespace"
        )
        raise QueryParseError(
            f"malformed query: unparsed text {gap.strip()!r} between atoms "
            f"(expected {expected}); use strict=False to ignore",
            text,
            _fragment_span(text, offset + start, offset + end),
        )


def query_from_hypergraph(
    hypergraph: Hypergraph, prefix: str = "R", name: str = "Q"
) -> ConjunctiveQuery:
    """Build a query with one atom per hyperedge (deterministic relation names)."""
    atoms = []
    for position, edge in enumerate(hypergraph.sorted_edges()):
        atoms.append(Atom(f"{prefix}{position}", tuple(edge)))
    return ConjunctiveQuery(tuple(atoms), name=name)
