"""Query verbs: counting 2-paths and enumerating triangle witnesses.

Run with::

    python examples/path_counting.py

The script shows the output-aware API on top of the same engine that
answers Boolean queries: a Datalog head with variables — ``Q(X, Z) :- ...``
— makes the query output-producing, and the engine serves it through three
verbs sharing one set of strategies, caches and VM kernels:

* ``engine.exists(q)`` — satisfiability (``engine.ask`` is a thin alias);
* ``engine.count(q)``  — the number of distinct output tuples, counted on
  the columnar code arrays without materializing the output;
* ``engine.select(q, limit=k)`` — a lazy ResultSet streaming the first
  ``k`` distinct output tuples in a deterministic order.

Build one ``QueryEngine`` and use the verbs.
"""

from __future__ import annotations

from repro import QueryEngine
from repro.db import parse_query, triangle_instance


def main() -> None:
    database = triangle_instance(
        num_edges=3_000, domain_size=120, skew="heavy", plant_triangle=True, seed=7
    )
    engine = QueryEngine(database)
    print(f"database size N = {database.size} tuples (columnar backend)")
    print()

    print("=== count(): how many distinct 2-paths X -R-> Y -S-> Z? ===")
    two_paths = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
    counted = engine.count(two_paths)
    print(f"query     : {two_paths}")
    print(f"strategy  : {counted.strategy} (auto; acyclic -> Yannakakis)")
    print(f"2-paths   : {counted.row_count} distinct (X, Z) pairs")
    print(f"time      : {counted.seconds * 1e3:.2f} ms")
    print()

    print("=== select(limit=k): the first triangle witnesses ===")
    triangles = parse_query("Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(X, Z)")
    witnesses = engine.select(triangles, limit=5)
    # Nothing has executed yet; rows stream on the first pull, in
    # discovery order (order="sorted" asks for the deterministic one).
    print(f"query     : {triangles}")
    print(f"executed before pulling rows? {witnesses.executed}")
    for x, y, z in witnesses:
        print(f"  triangle ({x}, {y}, {z})")
    print(f"strategy  : {witnesses.result.strategy} (cyclic -> exhaustive WCOJ)")
    total = engine.count(triangles)
    print(f"in total  : {total.row_count} distinct triangles")
    print()

    print("=== exists(): the Boolean verb (ask() is an alias) ===")
    exists = engine.exists(triangles)
    print(f"answer    : {exists.answer} via {exists.strategy} "
          f"in {exists.seconds * 1e3:.2f} ms")
    print()

    print("=== to_dict(): JSON-safe result summaries for services ===")
    import json

    document = counted.to_dict()
    document["trace"] = f"<{len(document['trace'])} operator traces>"
    print(json.dumps(document, indent=2))


if __name__ == "__main__":
    main()
