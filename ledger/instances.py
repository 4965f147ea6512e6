"""Seeded generators for every workload's data and operation stream.

The program under test only ever sees what is generated here: plain
``(schema, rows)`` tables and a stream of :class:`Op` records whose
``text`` is what the engine parses and whose ``atoms``/``outputs`` are
what the oracle evaluates.  Equal seeds give byte-identical tables and
op streams (:func:`ops_digest`); nothing here imports ``repro``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]
Table = Tuple[Tuple[str, ...], List[Row]]
Atom = Tuple[str, Tuple[str, ...]]

WORKLOADS = (
    "omega-triangle",
    "wcoj-triangle",
    "chain-adhoc",
    "updates-mix",
    "serve-hot",
    "plan-cold",
)

TRIANGLE_ATOMS: Tuple[Atom, ...] = (
    ("R", ("X", "Y")),
    ("S", ("Y", "Z")),
    ("T", ("X", "Z")),
)

#: Class shares per block, in operations.  Every block holds exactly these
#: counts, spread evenly (see :func:`class_pattern`), so the 50th and 90th
#: percentile of a run fall inside one class, away from a class boundary.
SHARES: Dict[str, Dict[str, int]] = {
    "omega-triangle": {"exists": 1},
    "wcoj-triangle": {"exists": 1},
    "chain-adhoc": {"count": 11, "exists": 2, "select_stream": 3, "select_sorted": 4},
    "updates-mix": {
        "insert1": 24,
        "delete1": 10,
        "insert100": 2,
        "exists": 2,
        "count_full": 1,
        "count_proj": 1,
    },
    "serve-hot": {"hot": 17, "select64": 1, "select512": 2},
    "plan-cold": {
        "triangle": 15,
        "star": 10,
        "triangle_tail": 10,
        "cycle4": 30,
        "clique4": 10,
        "chain4": 10,
        "cycle5": 12,
        "cycle6": 3,
    },
}

#: ``updates-mix``: how many blocks the writer stays on one relation.
WRITER_BLOCKS = 2

#: Data sizes.  ``smoke`` keeps every code path and shrinks the rows so
#: the whole ledger runs in seconds.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "omega-triangle": {"rows": 2500, "domain": 100},
        "wcoj-triangle": {"rows": 2500, "domain": 100},
        "chain-adhoc": {"relations": 6, "rows": 20_000, "domain": 10_000},
        "updates-mix": {"relations": 4, "rows": 40_000, "domain": 40_000},
        "serve-hot": {"relations": 3, "rows": 20_000, "domain": 10_000},
        "plan-cold": {"relations": 8, "rows": 200, "domain": 40},
    },
    "smoke": {
        "omega-triangle": {"rows": 1400, "domain": 76},
        "wcoj-triangle": {"rows": 1400, "domain": 76},
        "chain-adhoc": {"relations": 6, "rows": 1500, "domain": 800},
        "updates-mix": {"relations": 4, "rows": 3000, "domain": 3000},
        "serve-hot": {"relations": 3, "rows": 2000, "domain": 1000},
        "plan-cold": {"relations": 8, "rows": 60, "domain": 16},
    },
}


@dataclass(frozen=True)
class Op:
    """One operation: what the engine is told and what the oracle checks."""

    cls: str
    verb: str  # exists | count | select | insert | delete
    text: str = ""
    atoms: Tuple[Atom, ...] = ()
    outputs: Tuple[str, ...] = ()
    limit: Optional[int] = None
    order: Optional[str] = None
    relation: str = ""
    rows: Tuple[Row, ...] = ()


@dataclass
class Instance:
    """One workload's generated input: its tables and its op stream."""

    workload: str
    seed: int
    size: Dict[str, int]
    tables: Dict[str, Table]
    #: The planted twin of the witness-free triangle (triangle workloads only).
    planted: Optional[Dict[str, Table]] = None

    def ops(self) -> Iterator[Op]:
        """The op stream from its start (a fresh, equal iterator per call)."""
        return _OP_STREAMS[self.workload](self)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def class_pattern(shares: Dict[str, int], rng: random.Random) -> List[str]:
    """One block of class labels: exact counts, each class evenly spread.

    A plain shuffle would let a short run see 0 or 6 of a rare, slow
    class; spreading each class over the block with one random phase keeps
    every prefix close to the declared shares.
    """
    slots = []
    for cls, count in shares.items():
        phase = rng.random()
        slots.extend(((k + phase) / count, cls) for k in range(count))
    slots.sort()
    return [cls for _, cls in slots]


def _classes(workload: str, rng: random.Random) -> Iterator[str]:
    while True:
        yield from class_pattern(SHARES[workload], rng)


def _distinct_pairs(
    rng: random.Random, count: int, domain: int, keep=lambda a, b: True
) -> List[Row]:
    pairs = set()
    while len(pairs) < count:
        a, b = rng.randrange(domain), rng.randrange(domain)
        if keep(a, b):
            pairs.add((a, b))
    return sorted(pairs)


def render(atoms: Sequence[Atom], outputs: Sequence[str]) -> str:
    """The Datalog text of a query (what ``parse_query`` is given)."""
    body = ", ".join(f"{rel}({', '.join(vs)})" for rel, vs in atoms)
    return f"Q({', '.join(outputs)}) :- {body}"


# ----------------------------------------------------------------------
# Triangles: witness-free by a parity argument
# ----------------------------------------------------------------------
def triangle_tables(rng: random.Random, rows: int, domain: int) -> Dict[str, Table]:
    """A dense triangle instance with no triangle at any skew.

    Every value carries the label ``v % 2``.  R and S only join values of
    equal label, T only values of unequal label — so a triangle would need
    ``label(x) == label(y) == label(z) != label(x)``.
    """


    def same(a: int, b: int) -> bool:
        return a % 2 == b % 2

    def differ(a: int, b: int) -> bool:
        return a % 2 != b % 2

    return {
        "R": (("X", "Y"), _distinct_pairs(rng, rows, domain, same)),
        "S": (("Y", "Z"), _distinct_pairs(rng, rows, domain, same)),
        "T": (("X", "Z"), _distinct_pairs(rng, rows, domain, differ)),
    }


def plant_triangle(tables: Dict[str, Table]) -> Dict[str, Table]:
    """The twin with one triangle (0, 2, 4) planted — warm-up must say True."""
    extra = {"R": (0, 2), "S": (2, 4), "T": (0, 4)}
    return {
        name: (schema, sorted(set(rows) | {extra[name]}))
        for name, (schema, rows) in tables.items()
    }


def count_triangles(tables: Dict[str, Table]) -> int:
    """Brute-force triangle count over plain tuples (the self-check)."""
    s_by_y: Dict[int, List[int]] = {}
    for y, z in tables["S"][1]:
        s_by_y.setdefault(y, []).append(z)
    t_rows = set(tables["T"][1])
    return sum(
        1 for x, y in tables["R"][1] for z in s_by_y.get(y, ()) if (x, z) in t_rows
    )


def _triangle_instance(workload: str, seed: int, size: Dict[str, int]) -> Instance:
    # Both triangle workloads draw from one stream: same seed, same rows.
    tables = triangle_tables(_rng("triangle", seed, "data"), size["rows"], size["domain"])
    return Instance(workload, seed, size, tables, planted=plant_triangle(tables))


def _triangle_ops(instance: Instance) -> Iterator[Op]:
    op = Op("exists", "exists", render(TRIANGLE_ATOMS, ()), TRIANGLE_ATOMS)
    return itertools.repeat(op)


# ----------------------------------------------------------------------
# Binary-relation databases for the other workloads
# ----------------------------------------------------------------------
def _binary_tables(
    rng: random.Random, names: Sequence[str], rows: int, domain: int
) -> Dict[str, Table]:
    return {
        name: (("A", "B"), _distinct_pairs(rng, rows, domain)) for name in names
    }


def _regular_tables(
    rng: random.Random, names: Sequence[str], rows: int, domain: int
) -> Dict[str, Table]:
    """Relations in which every value has the same degree, ``rows / domain``, on both sides.

    A limit-bounded select stops after a number of rows that depends on the
    fan-out it meets: over random pairs the same ``SELECT ... LIMIT 512``
    cost 2.9 ms in process on one seed and 4.0 ms on the next (3.4 to 3.5 ms
    on six seeds with equal degrees), and ``op_p90_ms`` followed it.  Each relation is the union of
    ``rows / domain`` shifts of one random permutation.
    """
    tables = {}
    for name in names:
        image = list(range(domain))
        rng.shuffle(image)
        shifts = rng.sample(range(domain), rows // domain)
        pairs = [(a, image[(a + shift) % domain]) for shift in shifts for a in range(domain)]
        tables[name] = (("A", "B"), sorted(pairs))
    return tables


def _generic_instance(workload: str, seed: int, size: Dict[str, int]) -> Instance:
    prefix = {"chain-adhoc": "C", "updates-mix": "U", "serve-hot": "H", "plan-cold": "E"}
    names = [f"{prefix[workload]}{i + 1}" for i in range(size["relations"])]
    # ``serve-hot`` is there for the front door, not for what the data do to a select.
    make = _regular_tables if workload == "serve-hot" else _binary_tables
    tables = make(_rng(workload, seed, "data"), names, size["rows"], size["domain"])
    return Instance(workload, seed, size, tables)


def _oriented(rng: random.Random, left: str, right: str) -> Tuple[str, str]:
    return (left, right) if rng.random() < 0.5 else (right, left)


def _chain_atoms(
    rng: random.Random, relations: Sequence[str], variables: Sequence[str]
) -> Tuple[Atom, ...]:
    """A chain over ``variables`` with randomly oriented atoms."""
    atoms = []
    for rel, left, right in zip(relations, variables, variables[1:]):
        atoms.append((rel, _oriented(rng, left, right)))
    return tuple(atoms)


def _chain_adhoc_ops(instance: Instance) -> Iterator[Op]:
    rng = _rng(instance.workload, instance.seed, "ops")
    names = sorted(instance.tables)
    for index, cls in enumerate(_classes(instance.workload, rng)):
        # The op index in every variable name makes each text distinct, so
        # the engine's name-sensitive incremental store never answers.
        variables = [f"{letter}{index}" for letter in "XYZW"]
        atoms = _chain_atoms(rng, rng.sample(names, 3), variables)
        if cls == "count":
            # Counting over the far half of the chain costs three times as
            # much (the join tree is rooted at the first atom); one half keeps
            # the class's latencies in one band.
            outputs: Tuple[str, ...] = (rng.choice(variables[:2]),)
            yield Op(cls, "count", render(atoms, outputs), atoms, outputs)
        elif cls == "exists":
            yield Op(cls, "exists", render(atoms, ()), atoms)
        elif cls == "select_stream":
            outputs = tuple(rng.sample(variables, 2))
            yield Op(cls, "select", render(atoms, outputs), atoms, outputs, 64)
        else:
            # Two variables two steps apart: ranked enumeration over an
            # adjacent pair costs 2.5 times as much and over the chain's two
            # ends two thirds, each a band of its own.
            first, second = rng.choice(((0, 2), (1, 3), (2, 0), (3, 1)))
            outputs = (variables[first], variables[second])
            yield Op(cls, "select", render(atoms, outputs), atoms, outputs, 16, "sorted")


def _updates_mix_ops(instance: Instance) -> Iterator[Op]:
    rng = _rng(instance.workload, instance.seed, "ops")
    names = sorted(instance.tables)
    domain = instance.size["domain"]
    present = {name: set(rows) for name, (_, rows) in instance.tables.items()}
    # Single-row inserts not yet deleted, per relation.
    inserted: Dict[str, List[Row]] = {name: [] for name in names}
    chain_vars = ("V1", "V2", "V3", "V4", "V5")
    chain = tuple((rel, pair) for rel, pair in zip(names, zip(chain_vars, chain_vars[1:])))
    reads = {
        "exists": Op("exists", "exists", render(chain, ()), chain),
        "count_full": Op("count_full", "count", render(chain, chain_vars), chain, chain_vars),
        "count_proj": Op(
            "count_proj", "count", render(chain[:2], ("V1",)), chain[:2], ("V1",)
        ),
    }

    def fresh(name: str, count: int) -> Tuple[Row, ...]:
        rows = []
        while len(rows) < count:
            row = (rng.randrange(domain), rng.randrange(domain))
            if row not in present[name]:
                present[name].add(row)
                rows.append(row)
        return tuple(rows)

    block = sum(SHARES[instance.workload].values())
    for index, cls in enumerate(_classes(instance.workload, rng)):
        if index % (WRITER_BLOCKS * block) == 0:
            # The writer works on one relation for a few blocks, so a read
            # usually finds the deltas of one relation since it last ran —
            # the case the engine can patch — and sometimes of two.
            target = rng.choice(names)
        if cls in reads:
            yield reads[cls]
        elif cls == "delete1" and inserted[target]:
            row = inserted[target].pop(rng.randrange(len(inserted[target])))
            present[target].discard(row)
            yield Op(cls, "delete", relation=target, rows=(row,))
        else:
            # A delete with nothing of its relation to undo yet falls
            # through to a single-row insert of its own class.
            rows = fresh(target, 100 if cls == "insert100" else 1)
            if cls != "insert100":
                inserted[target].append(rows[0])
            yield Op(cls, "insert", relation=target, rows=rows)


def serve_statements(instance: Instance) -> Dict[str, List[Op]]:
    """The four distinct statements of ``serve-hot``, by class."""
    h1, h2, h3 = sorted(instance.tables)
    chain3 = ((h1, ("X", "Y")), (h2, ("Y", "Z")), (h3, ("Z", "W")))
    chain2 = chain3[:2]

    def op(cls: str, verb: str, atoms, outputs=(), limit=None) -> Op:
        text = f"{verb.upper()} {render(atoms, outputs)}"
        if limit is not None:
            text += f" LIMIT {limit}"
        return Op(cls, verb, text, tuple(atoms), tuple(outputs), limit)

    return {
        "hot": [op("hot", "exists", chain3), op("hot", "count", chain2, ("X",))],
        "select64": [op("select64", "select", chain2, ("X", "Z"), 64)],
        "select512": [op("select512", "select", chain3, ("X", "W"), 512)],
    }


def _serve_hot_ops(instance: Instance) -> Iterator[Op]:
    rng = _rng(instance.workload, instance.seed, "ops")
    statements = serve_statements(instance)
    for cls in _classes(instance.workload, rng):
        yield rng.choice(statements[cls])


#: Query shapes of ``plan-cold`` as edge lists over variable positions.
PLAN_SHAPES: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "triangle": ((0, 1), (1, 2), (0, 2)),
    "star": ((0, 1), (0, 2), (0, 3)),
    "triangle_tail": ((0, 1), (1, 2), (0, 2), (2, 3)),
    "cycle4": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "clique4": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    "chain4": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "cycle5": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)),
    "cycle6": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
}


def _plan_cold_ops(instance: Instance) -> Iterator[Op]:
    rng = _rng(instance.workload, instance.seed, "ops")
    names = sorted(instance.tables)
    # The stream opens with one op of every shape (the warm-up), so set-up
    # costs the same whichever classes the pattern happens to start with.
    classes = itertools.chain(PLAN_SHAPES, _classes(instance.workload, rng))
    for index, cls in enumerate(classes):
        edges = PLAN_SHAPES[cls]
        letters = rng.sample("ABCDEFGHJK", 1 + max(max(edge) for edge in edges))
        variables = [f"{letter}{index}" for letter in letters]
        atoms = tuple(
            (rel, _oriented(rng, variables[a], variables[b]))
            for rel, (a, b) in zip(rng.sample(names, len(edges)), edges)
        )
        yield Op(cls, "exists", f"EXISTS {render(atoms, ())}", atoms)


_OP_STREAMS = {
    "omega-triangle": _triangle_ops,
    "wcoj-triangle": _triangle_ops,
    "chain-adhoc": _chain_adhoc_ops,
    "updates-mix": _updates_mix_ops,
    "serve-hot": _serve_hot_ops,
    "plan-cold": _plan_cold_ops,
}


def generate(workload: str, seed: int, smoke: bool = False) -> Instance:
    """The instance of one workload for one seed."""
    size = SIZES["smoke" if smoke else "full"][workload]
    if workload.endswith("-triangle"):
        return _triangle_instance(workload, seed, size)
    return _generic_instance(workload, seed, size)


def take(instance: Instance, count: int) -> List[Op]:
    """The first ``count`` ops of the instance's stream."""
    return list(itertools.islice(instance.ops(), count))


def ops_digest(ops: Sequence[Op]) -> bytes:
    """A canonical byte string of an op list (equal seeds ⇒ equal bytes)."""
    return json.dumps([asdict(op) for op in ops], sort_keys=True).encode()


def self_check() -> None:
    """Prove the witness-free construction at the smoke size, by brute force."""
    for seed in range(3):
        instance = generate("omega-triangle", seed, smoke=True)
        if count_triangles(instance.tables) != 0:
            raise AssertionError("the witness-free triangle instance has a triangle")
        if count_triangles(instance.planted) < 1:
            raise AssertionError("the planted twin has no triangle")


if __name__ == "__main__":
    self_check()
    print("instances: witness-free triangle self-check passed")
