"""Tests for conjunctive queries, databases, join strategies and generators."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import QueryEngine
from repro.db import (
    Atom,
    ConjunctiveQuery,
    Database,
    Relation,
    clique_instance,
    four_cycle_instance,
    parse_query,
    pyramid_instance,
    query_from_hypergraph,
    random_database,
    skewed_pairs,
    triangle_instance,
)
from repro.exec import VirtualMachine, lower_generic_join, lower_yannakakis
from repro.hypergraph import four_cycle, triangle
from tests.conftest import LOAD_FORMS, load_database


_ORDER_SCRIPT = """
from repro.api import QueryEngine
from repro.db import Database, Relation, parse_query
from repro.api.strategies import default_variable_order

pairs = [(i, (i + 1) % 8) for i in range(8)]
database = Database(
    {name: Relation(("A", "B"), pairs) for name in ("R", "S", "T", "U", "V")}
)
engine = QueryEngine(database)
for text in (
    "Q() :- R(X, Y), S(Y, Z), T(X, Z)",
    "Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)",
    "Q() :- R(A, B), S(B, C), T(C, D), U(D, E), V(E, F)",
):
    query = parse_query(text)
    print(default_variable_order(query, database))
    print(engine.explain(query, "generic_join").describe())
"""


class TestQueryParsing:
    def test_parse_full_rule(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        assert q.name == "Q"
        assert len(q.atoms) == 3
        assert q.variables == frozenset("XYZ")

    def test_parse_body_only(self):
        q = parse_query("R(X, Y), S(Y, Z)", name="path")
        assert q.name == "path"
        assert q.relation_names == ("R", "S")

    def test_primed_variables(self):
        q = parse_query("Q() :- S(Y, Z'), T(X, Z')")
        assert "Z'" in q.variables

    def test_head_variables_become_outputs(self):
        q = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        assert q.output_variables == ("X", "Z")
        assert not q.is_boolean
        assert str(q) == "Q(X, Z) :- R(X, Y), S(Y, Z)"

    def test_head_variables_must_appear_in_body(self):
        with pytest.raises(ValueError):
            parse_query("Q(A) :- R(X, Y)")

    def test_unparseable_rejected(self):
        with pytest.raises(ValueError):
            parse_query("nothing to see here")

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom("R", ())
        with pytest.raises(ValueError):
            Atom("R", ("X", "X"))
        with pytest.raises(ValueError):
            ConjunctiveQuery((Atom("R", ("X",)), Atom("R", ("Y",))))

    def test_hypergraph_roundtrip(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        assert q.hypergraph() == triangle()
        back = query_from_hypergraph(four_cycle())
        assert back.hypergraph() == four_cycle()

    def test_acyclicity(self):
        assert parse_query("R(X, Y), S(Y, Z)").is_acyclic()
        assert not parse_query("R(X, Y), S(Y, Z), T(X, Z)").is_acyclic()


class TestDatabase:
    def test_size_and_lookup(self):
        db = Database({"R": Relation(("A", "B"), [(1, 2)])})
        db["S"] = Relation(("B", "C"), [(2, 3), (2, 4)])
        assert db.size == 3
        assert "S" in db and len(db["S"]) == 2
        with pytest.raises(KeyError):
            db["T"]
        with pytest.raises(TypeError):
            db["T"] = [(1, 2)]  # type: ignore[assignment]

    def test_validation_against_query(self):
        q = parse_query("Q() :- R(X, Y)")
        db = Database({"R": Relation(("A", "B"), [(1, 2)])})
        db.validate_against(q)
        bad_arity = Database({"R": Relation(("A", "B", "C"), [(1, 2, 3)])})
        with pytest.raises(ValueError):
            bad_arity.validate_against(q)
        with pytest.raises(KeyError):
            Database().validate_against(q)

    def test_relation_for_renames_columns(self):
        q = parse_query("Q() :- R(X, Y)")
        db = Database({"R": Relation(("A", "B"), [(1, 2)])})
        renamed = db.relation_for(q, "R")
        assert renamed.schema == ("X", "Y")


def check_against_oracle(query, database, oracle, strategies):
    """Every strategy, for both input forms, answers the three verbs as the oracle.

    ``exists`` runs on ``query``; ``count`` and ``select`` on its body with
    every variable in the head (the full join), for each strategy that
    serves them.
    """
    full = query.with_outputs(sorted(query.variables))
    expected = oracle(full, database)
    for form in LOAD_FORMS:
        engine = QueryEngine(load_database(form, database.items()))
        for strategy in strategies:
            assert engine.exists(query, strategy).answer is bool(expected)
            if strategy != "omega":
                assert engine.count(full, strategy).row_count == len(expected)
                assert engine.select(full, strategy).to_rows() == sorted(expected)


class TestJoinAlgorithms:
    """The combinatorial baselines, run as engine strategies, against the oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_join_matches_naive_on_triangles(self, seed, oracle):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        db = triangle_instance(
            60, domain_size=14, seed=seed, plant_triangle=(seed % 2 == 0)
        )
        check_against_oracle(q, db, oracle, ("naive", "generic_join", "omega"))

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_join_matches_naive_on_cycles(self, seed, oracle):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)")
        db = four_cycle_instance(50, domain_size=12, seed=seed, plant_cycle=(seed == 1))
        check_against_oracle(q, db, oracle, ("naive", "generic_join", "omega"))

    def test_generic_join_custom_order_validation(self):
        q = parse_query("Q() :- R(X, Y)")
        db = Database({"R": Relation(("X", "Y"), [(1, 2)])})
        assert VirtualMachine(db).run(lower_generic_join(q, ["Y", "X"])).answer
        with pytest.raises(ValueError):
            lower_generic_join(q, ["X"])

    def test_generic_join_order_does_not_follow_the_hash_seed(self):
        # Equal-size relations tie every variable's score, so the order is
        # decided by the tie-break alone.
        source = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for hash_seed in "0123":
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert outputs.pop().count("Wcoj[") == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_yannakakis_matches_naive_on_acyclic(self, seed, oracle):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W)")
        db = random_database(q, 40, domain_size=10, seed=seed, plant_witness=(seed == 0))
        check_against_oracle(
            q, db, oracle, ("naive", "generic_join", "yannakakis", "omega")
        )

    def test_yannakakis_rejects_cyclic(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        db = triangle_instance(10, seed=0)
        with pytest.raises(ValueError):
            lower_yannakakis(q)
        with pytest.raises(ValueError):
            QueryEngine(db).exists(q, "yannakakis")

    def test_empty_relation_short_circuits(self, oracle):
        q = parse_query("Q() :- R(X, Y), S(Y, Z)")
        db = Database(
            {"R": Relation(("X", "Y"), [(1, 2)]), "S": Relation(("Y", "Z"), [])}
        )
        assert not oracle(q, db)
        check_against_oracle(
            q, db, oracle, ("naive", "generic_join", "yannakakis", "omega")
        )


class TestGenerators:
    def test_triangle_instance_planting(self, oracle):
        db = triangle_instance(30, plant_triangle=True, seed=5)
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        assert oracle(q, db)

    def test_four_cycle_instance_planting(self, oracle):
        db = four_cycle_instance(30, plant_cycle=True, seed=5)
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)")
        assert oracle(q, db)

    def test_clique_instance_planting(self, oracle):
        query, db = clique_instance(4, 30, plant_clique=True, seed=2)
        assert oracle(query, db)

    def test_pyramid_instance_shapes(self, oracle):
        query, db = pyramid_instance(3, 25, seed=3, plant=True)
        assert oracle(query, db)
        wide = [a for a in query.atoms if len(a.variables) == 3]
        assert wide and len(db[wide[0].relation].schema) == 3

    def test_random_database_plants_witness(self, oracle):
        q = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        db = random_database(q, 20, seed=9, plant_witness=True)
        assert oracle(q, db)

    def test_skewed_pairs_have_hubs(self):
        pairs = skewed_pairs(300, domain_size=100, num_hubs=4, seed=1)
        from collections import Counter

        left_counts = Counter(a for a, _ in pairs)
        top = left_counts.most_common(1)[0][1]
        assert top > len(pairs) / 50  # the hubs really are heavy
