"""The performance ledger: six named workloads, one command.

``python3 -m ledger --workload W --seed S --seconds T --trace 0|1`` runs
one workload and prints its metrics (the ``BENCHMARK.json`` contract);
``python3 -m ledger --seed S --out FILE`` runs all six, three end-to-end
rounds plus a traced round each, and writes one document that
``python3 -m ledger.compare`` diffs against the declared bounds.

See ``ledger/README.md`` for the metric glossary and the reasons behind
every workload.
"""
