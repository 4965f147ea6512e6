"""Quickstart: widths and query answering through the QueryEngine facade.

Run with::

    python examples/quickstart.py

The script (1) computes the classical and ω-aware width measures of the
triangle query, (2) builds a small synthetic database and a
:class:`repro.QueryEngine` over it, (3) explains and answers the Boolean
triangle query, showing the plan cache turning repeated asks into
plan-free executions, and (4) cross-validates every strategy.
"""

from __future__ import annotations

from repro import QueryEngine
from repro.api import STRATEGIES
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import triangle_figure1
from repro.db import parse_query, triangle_instance
from repro.hypergraph import triangle
from repro.polymatroid import triangle_witness
from repro.width import (
    fractional_edge_cover_number,
    fractional_hypertree_width,
    omega_submodular_width,
    submodular_width,
)


def main() -> None:
    omega = OMEGA_BEST_KNOWN
    hypergraph = triangle()

    print("=== Width measures of the triangle query Q△ ===")
    print(f"fractional edge cover ρ*     : {fractional_edge_cover_number(hypergraph):.4f}")
    print(f"fractional hypertree width   : {fractional_hypertree_width(hypergraph).value:.4f}")
    print(f"submodular width             : {submodular_width(hypergraph).value:.4f}")
    osubw = omega_submodular_width(hypergraph, omega, seeds=[triangle_witness(omega)])
    print(f"ω-submodular width (ω={omega:.4f}): {osubw.value:.4f}")
    print(f"paper closed form 2ω/(ω+1)   : {2 * omega / (omega + 1):.4f}")
    print()

    print("=== A QueryEngine over a synthetic database ===")
    query = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
    database = triangle_instance(
        num_edges=2_000, domain_size=200, skew="heavy", plant_triangle=True, seed=42
    )
    engine = QueryEngine(database, omega=omega)
    print(f"database size N = {database.size} tuples")
    print(f"strategies: {sorted(STRATEGIES)}")
    print()

    print("=== explain(): the plan, without executing ===")
    explanation = engine.explain(query, strategy="omega", include_widths=True)
    print(explanation.describe())
    print()

    print("=== exists(): first ask plans, the second hits the plan cache ===")
    engine.clear_plan_cache()  # explain() above already warmed the cache
    first = engine.exists(query, strategy="omega")
    second = engine.exists(query, strategy="omega")
    for label, result in (("first", first), ("second", second)):
        print(
            f"  {label:<6s} answer={result.answer}  total={result.seconds * 1e3:7.2f} ms  "
            f"plan={result.plan_seconds * 1e3:6.2f} ms  "
            f"execute={result.execute_seconds * 1e3:6.2f} ms  "
            f"plan from {result.plan_source}"
        )
    stats = engine.cache_info()
    print(f"  plan cache: {stats.hits} hits / {stats.misses} misses")
    print()

    print("=== compare(): every strategy must agree ===")
    results = engine.compare(query)
    for name, result in sorted(results.items()):
        print(
            f"  strategy {name:<13s} answer={result.answer}  "
            f"time={result.seconds * 1e3:7.2f} ms"
        )

    figure1 = triangle_figure1(database, omega)
    print(
        f"  Figure-1 algorithm     answer={figure1.answer}  "
        f"time={figure1.seconds * 1e3:7.2f} ms  "
        f"(Δ={figure1.threshold}, found in the {figure1.found_in} part)"
    )


if __name__ == "__main__":
    main()
