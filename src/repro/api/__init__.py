"""The public query-answering API: engine facade, strategies, plan cache.

This package is the supported surface for answering conjunctive queries —
Boolean and output-producing.  The moving parts:

:class:`QueryEngine`
    A stateful facade owning a database, organised around three query
    *verbs*: ``engine.exists(query)`` decides satisfiability (``ask`` is a
    thin alias), ``engine.count(query)`` reports the number of distinct
    output tuples, and ``engine.select(query, limit=...)`` returns a lazy
    deterministic-order :class:`ResultSet` streaming them.
    ``engine.explain(query, verb=...)`` reports the chosen strategy, plan
    and width measures without executing, ``engine.ask_many(queries)``
    runs a batch in input order (isomorphic members share one cached
    plan), and ``engine.compare(query, verb=...)`` cross-validates strategies
    (raising :class:`StrategyDisagreement` on mismatch).  Every strategy
    runs on the columnar store's kernels (:mod:`repro.db.backends`).

Strategy registry (:mod:`repro.api.strategies`)
    Every execution method is a :class:`Strategy` registered by name —
    built-ins ``naive``, ``generic_join``, ``yannakakis``, ``omega`` — and
    new ones plug in via the :func:`register_strategy` decorator.

Plan cache (:mod:`repro.api.cache`)
    An LRU keyed by (canonical query shape, strategy, ω, database
    statistics fingerprint).  Plans are stored in canonical variable space,
    so isomorphic queries hit the same entry; any database mutation bumps
    the fingerprint and transparently invalidates stale plans.
    ``engine.cache_info()`` exposes hit/miss counters.

Typical use::

    from repro.api import QueryEngine
    from repro.db import parse_query, triangle_instance

    engine = QueryEngine(triangle_instance(1000, domain_size=80, seed=1))
    result = engine.ask(parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)"))
    print(result.answer, result.cache_hit, result.plan_seconds)
"""

from ..exec.cache import CacheStats, ResultCache
from .cache import CachedPlanEntry, PlanCache
from .engine import Explanation, QueryEngine, QueryResult
from .errors import (
    EngineError,
    QueryParseError,
    StrategyDisagreement,
    UnknownStrategyError,
    UnsupportedWorkload,
)
from .results import ResultSet, row_order_key
from .strategies import (
    DEFAULT_REGISTRY,
    VERBS,
    Strategy,
    StrategyRegistry,
    available_strategies,
    register_strategy,
    unregister_strategy,
)

__all__ = [
    "CacheStats",
    "CachedPlanEntry",
    "DEFAULT_REGISTRY",
    "EngineError",
    "Explanation",
    "PlanCache",
    "QueryEngine",
    "QueryParseError",
    "QueryResult",
    "ResultCache",
    "ResultSet",
    "VERBS",
    "row_order_key",
    "Strategy",
    "StrategyDisagreement",
    "StrategyRegistry",
    "UnknownStrategyError",
    "UnsupportedWorkload",
    "available_strategies",
    "register_strategy",
    "unregister_strategy",
]
