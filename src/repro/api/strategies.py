"""The four execution strategies, fixed by name in :data:`STRATEGIES`.

Every way of answering a conjunctive query is a :class:`Strategy` object:
``naive`` (the pairwise join), ``generic_join``, ``yannakakis`` and
``omega`` (the paper's ω-query plans).  A strategy is a *lowering*:
:meth:`Strategy.lower` turns a query into a physical-operator
:class:`~repro.exec.ir.Program`, and the engine optimizes it and runs it
on its one shared virtual machine.

Strategies that plan (``uses_plans = True``) split the work in two: the
engine obtains a plan — from its LRU plan cache whenever the query shape,
ω and database statistics match a previous ask — and hands it to
:meth:`Strategy.lower`, so repeated asks of the same shape skip planning
entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..db.database import Database
from ..db.query import ConjunctiveQuery
from ..core.plan import OmegaQueryPlan
from ..core.planner import PlannedQuery, plan_query
from ..exec.ir import Program
from ..exec.lower import (
    VERBS,
    lower_generic_join,
    lower_naive,
    lower_plan,
    lower_yannakakis,
)
from .errors import UnsupportedWorkload


class Strategy:
    """One way of answering a conjunctive query.

    Subclasses set :attr:`name`, optionally restrict :meth:`supports`, and
    implement :meth:`lower`.  Plan-based strategies additionally set
    ``uses_plans = True`` and implement :meth:`plan`; the engine calls
    :meth:`plan` (through its cache) and passes the result to
    :meth:`lower`.

    :attr:`verbs` declares which query verbs the strategy serves; the
    engine always passes the ``verb`` keyword to :meth:`supports` and
    :meth:`lower`.  Strategies that can count/enumerate extend ``verbs``.
    """

    #: Key in :data:`STRATEGIES` and in results; subclasses must override.
    name: str = ""
    #: Whether the engine should obtain (and cache) a plan for this strategy.
    uses_plans: bool = False
    #: The query verbs this strategy can serve (exists-only by default;
    #: the engine raises :class:`UnsupportedWorkload` for anything else).
    verbs: Tuple[str, ...] = ("exists",)
    #: Whether :meth:`lower` accepts the ``select_options`` keyword (a
    #: :class:`~repro.exec.lower.SelectOptions` pushing limit/order into
    #: the enumeration program).  The engine only forwards the keyword to
    #: strategies that opt in, and stamps the options onto the optimized
    #: program's root for everyone else.
    supports_select_options: bool = False

    def supports(self, query: ConjunctiveQuery, verb: str = "exists") -> bool:
        """Whether this strategy can answer the query for the given verb."""
        return verb in self.verbs

    def plan(
        self, query: ConjunctiveQuery, database: Database, omega: float
    ) -> PlannedQuery:
        """Build a plan for the query (plan-based strategies only)."""
        raise NotImplementedError(f"strategy {self.name!r} does not plan")

    def lower(
        self,
        query: ConjunctiveQuery,
        database: Database,
        omega: float,
        plan: Optional[OmegaQueryPlan] = None,
        verb: str = "exists",
    ) -> Program:
        """Lower the strategy to a physical-operator program.

        The engine optimizes the program and runs it on its shared virtual
        machine (one instrumented executor, cross-query result cache).
        Every strategy must override this.
        """
        raise NotImplementedError(f"strategy {self.name!r} does not lower")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Strategy {self.name!r}>"


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
class NaiveStrategy(Strategy):
    """Materialise the full pairwise join; test, count or enumerate it."""

    name = "naive"
    verbs = VERBS

    def lower(self, query, database, omega, plan=None, verb="exists"):
        return lower_naive(query, verb=verb)


def default_variable_order(query: ConjunctiveQuery, database: Database) -> List[str]:
    """A degree-driven heuristic order: most constrained variables first.

    Reads the cached per-relation statistics (``V(A, r)``) straight off the
    stored relations — no per-atom renamed relation objects, no domain
    materialization — so ordering costs a handful of dictionary lookups
    once the backends' stat caches are warm.  Ties break by variable name:
    ``query.variables`` is a frozenset, and its iteration order follows
    ``PYTHONHASHSEED``.
    """
    scores = {}
    for variable in query.variables:
        covering = [a for a in query.atoms if variable in a.variable_set]
        domain_sizes = []
        for atom in covering:
            relation = database[atom.relation]
            column = relation.schema[atom.variables.index(variable)]
            domain_sizes.append(max(1, relation.stats.distinct(column)))
        scores[variable] = (-len(covering), min(domain_sizes))
    return sorted(query.variables, key=lambda v: (scores[v], v))


class GenericJoinStrategy(Strategy):
    """Worst-case optimal join: early termination for ``exists``, the
    exhaustive search (projected onto the outputs) for ``count``/``select``."""

    name = "generic_join"
    verbs = VERBS

    def lower(self, query, database, omega, plan=None, verb="exists"):
        order = default_variable_order(query, database)
        return lower_generic_join(query, order, verb=verb)


class YannakakisStrategy(Strategy):
    """Semijoin reduction (α-acyclic only): the upward pass for ``exists``,
    plus calibrating and joining the head's connex subtree for ``count``/``select``."""

    name = "yannakakis"
    verbs = VERBS
    supports_select_options = True

    def supports(self, query, verb="exists"):
        return verb in self.verbs and query.is_acyclic()

    def lower(self, query, database, omega, plan=None, verb="exists",
              select_options=None):
        return lower_yannakakis(query, verb=verb, select_options=select_options)


class OmegaStrategy(Strategy):
    """The paper's engine: cost-based ω-query planning plus execution.

    A decision procedure — the MM eliminations answer non-emptiness, not
    counting or enumeration — so it stays exists-only and raises
    :class:`UnsupportedWorkload` for the other verbs (``auto`` resolution
    falls back to a verb-capable strategy instead of raising).
    """

    name = "omega"
    uses_plans = True

    def plan(self, query, database, omega):
        return plan_query(query, database, omega)

    def lower(self, query, database, omega, plan=None, verb="exists"):
        if verb != "exists":
            raise UnsupportedWorkload(self.name, verb, query)
        if plan is None:
            plan = self.plan(query, database, omega).plan
        return lower_plan(query, database, plan)


#: The built-in strategies by name; ``"auto"`` resolves to one of them.
STRATEGIES: Dict[str, Strategy] = {
    strategy.name: strategy
    for strategy in (
        NaiveStrategy(),
        GenericJoinStrategy(),
        YannakakisStrategy(),
        OmegaStrategy(),
    )
}
