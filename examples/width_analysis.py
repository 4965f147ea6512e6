"""Scenario: analyse an arbitrary Boolean conjunctive query.

Give the tool a Datalog-style query (or use the default 4-cycle) and it
reports every width measure the library knows about, the witness
polymatroid for the ω-submodular width, and the elimination plan the
engine would run — i.e. the full "paper pipeline" applied to one query.

Run with::

    python examples/width_analysis.py
    python examples/width_analysis.py "Q() :- R(X,Y), S(Y,Z), T(X,Z), U(Y,W), V(X,W)"
"""

from __future__ import annotations

import sys

from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN, OMEGA_NAIVE
from repro.db import parse_query, random_database
from repro.width import (
    fractional_edge_cover_number,
    fractional_hypertree_width,
    omega_submodular_width,
    submodular_width,
)

DEFAULT_QUERY = "Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)"


def main() -> None:
    text = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_QUERY
    query = parse_query(text)
    hypergraph = query.hypergraph()
    omega = OMEGA_BEST_KNOWN

    print(f"query          : {query}")
    print(f"variables      : {', '.join(sorted(query.variables))}")
    print(f"atoms          : {len(query.atoms)}")
    print(f"acyclic        : {query.is_acyclic()}")
    print(f"clustered      : {hypergraph.is_clustered()}")
    print()

    print("=== Worst-case exponents (runtime ≈ N^width) ===")
    rho = fractional_edge_cover_number(hypergraph)
    fhtw = fractional_hypertree_width(hypergraph).value
    subw = submodular_width(hypergraph).value
    print(f"ρ*   (AGM / worst-case optimal join) : {rho:.4f}")
    print(f"fhtw (single tree decomposition)     : {fhtw:.4f}")
    print(f"subw (PANDA, combinatorial)          : {subw:.4f}")
    for omega_value, label in ((omega, "best known ω"), (OMEGA_NAIVE, "ω = 3")):
        result = omega_submodular_width(hypergraph, omega_value)
        print(
            f"ω-subw at {label:<12s}               : {result.value:.4f} "
            f"({result.method} method, {result.lp_solves} LPs)"
        )
    print()

    result = omega_submodular_width(hypergraph, omega)
    if result.witness is not None:
        print("=== Worst-case polymatroid (witness of the ω-subw lower bound) ===")
        for subset in sorted(
            (s for s in result.witness.defined_subsets() if s),
            key=lambda s: (len(s), tuple(sorted(s))),
        ):
            value = result.witness(subset)
            if value > 1e-9:
                print(f"  h({','.join(sorted(subset))}) = {value:.4f}")
        print()

    print("=== Plan chosen by the engine on a random instance ===")
    database = random_database(query, tuples_per_relation=500, seed=7, plant_witness=True)
    engine = QueryEngine(database, omega=omega)
    explanation = engine.explain(query, strategy="omega")
    print(explanation.describe())
    print()
    print("=== Executed (same engine, plan served from the cache) ===")
    result = engine.exists(query, strategy="omega")
    print(
        f"answer={result.answer}  plan from {result.plan_source}  "
        f"({result.execute_seconds * 1e3:.2f} ms execute)"
    )


if __name__ == "__main__":
    main()
