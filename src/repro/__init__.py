"""repro: a reproduction of "Fast Matrix Multiplication meets the Submodular Width".

The package is organised by subsystem:

* :mod:`repro.hypergraph` — query hypergraphs, tree decompositions, (G)VEOs,
  the MM terms of Definition 4.5;
* :mod:`repro.polymatroid` — set functions, polymatroids, Shannon machinery;
* :mod:`repro.width` — ρ*, fhtw, submodular width, ω-submodular width;
* :mod:`repro.matmul` — Boolean/counting MM, the rectangular cost model;
* :mod:`repro.db` — relations, conjunctive queries, join algorithms, generators;
* :mod:`repro.core` — ω-query plans, planner, per-class algorithms;
* :mod:`repro.exec` — the unified physical execution layer: operator IR,
  per-strategy lowering, the dead-operator pruning pass
  and the instrumented virtual machine every strategy runs on;
* :mod:`repro.api` — the public query engine: :class:`QueryEngine` facade,
  four fixed strategies, LRU plan+IR cache, batch execution with
  cross-query intermediate-result sharing.

Answering queries goes through :class:`repro.api.QueryEngine`::

    from repro import QueryEngine
    from repro.db import parse_query, triangle_instance

    engine = QueryEngine(triangle_instance(1000, domain_size=80, seed=1))
    result = engine.exists(parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)"))

Repeated asks of the same query *shape* (up to variable renaming) hit the
engine's plan cache and skip planning; ``engine.ask_many`` batches queries
and shares plans across isomorphic shapes.  The most common entry points
are re-exported here.

The width measures and the polymatroid machinery are analysis, solved with
LPs: import them from :mod:`repro.width` (``fractional_edge_cover_number``,
``fractional_hypertree_width``, ``submodular_width``,
``omega_submodular_width``) and :mod:`repro.polymatroid` (``SetFunction``).
Only those two packages load SciPy, so ``import repro`` and the query engine
start without it.
"""

from .api import (
    Explanation,
    QueryEngine,
    QueryParseError,
    QueryResult,
    ResultSet,
    Strategy,
    StrategyDisagreement,
    UnsupportedWorkload,
)
from .constants import (
    DEFAULT_OMEGA,
    OMEGA_BEST_KNOWN,
    OMEGA_NAIVE,
    OMEGA_OPTIMAL,
    OMEGA_STRASSEN,
    gamma,
)
from .hypergraph import Hypergraph

__version__ = "1.2.0"

__all__ = [
    "DEFAULT_OMEGA",
    "Explanation",
    "Hypergraph",
    "OMEGA_BEST_KNOWN",
    "OMEGA_NAIVE",
    "OMEGA_OPTIMAL",
    "OMEGA_STRASSEN",
    "QueryEngine",
    "QueryParseError",
    "QueryResult",
    "ResultSet",
    "Strategy",
    "StrategyDisagreement",
    "UnsupportedWorkload",
    "__version__",
    "gamma",
]
