"""Pluggable execution strategies and the strategy registry.

The seed engine dispatched on a hard-coded if/elif chain; here every way of
answering a Boolean conjunctive query is a :class:`Strategy` object looked
up by name in a :class:`StrategyRegistry`.  The four shipped strategies —
``naive``, ``generic_join``, ``yannakakis`` and ``omega`` — are registered
on import; users add their own with the :func:`register_strategy`
decorator.  A strategy is a *lowering*: :meth:`Strategy.lower` turns a
query into a physical-operator :class:`~repro.exec.ir.Program`, and the
engine optimizes it and runs it on its one shared virtual machine::

    @register_strategy
    class PairwiseStrategy(Strategy):
        name = "pairwise"
        verbs = VERBS

        def lower(self, query, database, omega, plan=None, verb="exists"):
            return lower_naive(query, verb=verb)

Strategies that plan (``uses_plans = True``) split the work in two: the
engine obtains a plan — from its LRU plan cache whenever the query shape,
ω and database statistics match a previous ask — and hands it to
:meth:`Strategy.lower`, so repeated asks of the same shape skip planning
entirely.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union, overload

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
from .errors import UnknownStrategyError, UnsupportedWorkload


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

    #: Registry key; subclasses must override.
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


class StrategyRegistry:
    """A mutable name → :class:`Strategy` mapping."""

    def __init__(self, strategies: Dict[str, Strategy] | None = None) -> None:
        self._strategies: Dict[str, Strategy] = dict(strategies or {})

    def register(
        self, strategy: Strategy, *, name: Optional[str] = None, replace: bool = False
    ) -> Strategy:
        key = name or strategy.name
        if not key:
            raise ValueError("strategies must declare a non-empty name")
        if key in self._strategies and not replace:
            raise ValueError(
                f"strategy {key!r} is already registered; pass replace=True "
                "to override it"
            )
        self._strategies[key] = strategy
        return strategy

    def unregister(self, name: str) -> Strategy:
        if name not in self._strategies:
            raise UnknownStrategyError(name, self.names())
        return self._strategies.pop(name)

    def get(self, name: str) -> Strategy:
        try:
            return self._strategies[name]
        except KeyError:
            raise UnknownStrategyError(name, self.names()) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._strategies))

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def copy(self) -> "StrategyRegistry":
        """An independent copy (engines can customise without global effect)."""
        return StrategyRegistry(dict(self._strategies))


#: The process-wide registry used by default by every :class:`QueryEngine`.
DEFAULT_REGISTRY = StrategyRegistry()


@overload
def register_strategy(target: type) -> type: ...
@overload
def register_strategy(target: Strategy) -> Strategy: ...
@overload
def register_strategy(
    *,
    name: Optional[str] = None,
    registry: Optional[StrategyRegistry] = None,
    replace: bool = False,
) -> Callable[[Union[type, Strategy]], Union[type, Strategy]]: ...


def register_strategy(
    target: Union[type, Strategy, None] = None,
    *,
    name: Optional[str] = None,
    registry: Optional[StrategyRegistry] = None,
    replace: bool = False,
):
    """Register a :class:`Strategy` class or instance, usable as a decorator.

    ``@register_strategy`` on a class instantiates it and registers the
    instance under its ``name`` attribute; ``@register_strategy(name=...,
    replace=True)`` customises the key or allows overriding a built-in.
    Returns the decorated class/instance unchanged, so classes stay
    importable.
    """
    where = registry if registry is not None else DEFAULT_REGISTRY

    def apply(obj: Union[type, Strategy]):
        strategy = obj() if isinstance(obj, type) else obj
        if not isinstance(strategy, Strategy):
            raise TypeError("register_strategy expects a Strategy subclass or instance")
        where.register(strategy, name=name, replace=replace)
        return obj

    if target is not None:
        return apply(target)
    return apply


def unregister_strategy(
    name: str, registry: Optional[StrategyRegistry] = None
) -> Strategy:
    """Remove a strategy from the (default) registry and return it."""
    where = registry if registry is not None else DEFAULT_REGISTRY
    return where.unregister(name)


def available_strategies(registry: Optional[StrategyRegistry] = None) -> Tuple[str, ...]:
    """The registered strategy names (sorted)."""
    where = registry if registry is not None else DEFAULT_REGISTRY
    return where.names()


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
@register_strategy
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


@register_strategy
class GenericJoinStrategy(Strategy):
    """Worst-case optimal join: early termination for ``exists``, the
    exhaustive search (projected onto the outputs) for ``count``/``select``."""

    name = "generic_join"
    verbs = VERBS

    def lower(self, query, database, omega, plan=None, verb="exists"):
        order = default_variable_order(query, database)
        return lower_generic_join(query, order, verb=verb)


@register_strategy
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


@register_strategy
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
