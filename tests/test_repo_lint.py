"""Repo-invariant linter: per-rule fixtures, baselines, and the live tree.

Each rule gets a pair of in-line fixtures — one that must fire and one
(annotated or restructured) that must not — plus framework coverage for
fingerprints, baselining and the CLI verb.  The capstone asserts the
real source tree is clean: every lock-owning scheduler container carries
its ``# guarded-by:`` annotation and every accumulator its
``# bounded-by:`` bound, so a new unannotated one fails CI.
"""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.analysis.lint import (
    LintFinding,
    lint_paths,
    lint_source,
    load_baseline,
    registered_rules,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def findings(source, path="<string>", rules=None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def test_rule_registry():
    assert registered_rules() == (
        "guarded-state", "layering", "swallowed-cancel", "unbounded-cache",
        "wall-clock",
    )


# ----------------------------------------------------------------------
# guarded-state
# ----------------------------------------------------------------------
GUARDED_BAD = """
    import threading

    class Scheduler:
        def __init__(self):
            self.pending = {}
            self.lock = threading.Lock()
"""

GUARDED_GOOD = """
    import threading

    class Scheduler:
        def __init__(self):
            self.pending = {}  # guarded-by: lock
            self.lock = threading.Lock()
"""


def test_guarded_state_fires_without_annotation():
    found = findings(GUARDED_BAD, rules=["guarded-state"])
    assert [f.symbol for f in found] == ["pending"]
    assert "guarded-by" in found[0].message


def test_guarded_state_accepts_annotation():
    assert findings(GUARDED_GOOD, rules=["guarded-state"]) == []


def test_guarded_state_ignores_lockless_classes():
    source = """
        class Plain:
            def __init__(self):
                self.items = []
    """
    assert findings(source, rules=["guarded-state"]) == []


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
def test_wall_clock_fires_only_in_exec_modules():
    source = """
        import time

        def kernel():
            return time.time()
    """
    inside = findings(source, path="src/repro/exec/kernels.py",
                      rules=["wall-clock"])
    assert [f.symbol for f in inside] == ["time.time"]
    assert findings(source, path="src/repro/server/log.py",
                    rules=["wall-clock"]) == []


def test_wall_clock_allows_perf_counter():
    source = """
        import time

        def kernel():
            return time.perf_counter()
    """
    assert findings(source, path="src/repro/exec/kernels.py",
                    rules=["wall-clock"]) == []


# ----------------------------------------------------------------------
# unbounded-cache
# ----------------------------------------------------------------------
def test_unbounded_cache_fires_on_cache_names():
    source = """
        class Engine:
            def __init__(self):
                self.result_cache = {}
                self.position = 0
    """
    found = findings(source, rules=["unbounded-cache"])
    assert [f.symbol for f in found] == ["result_cache"]


def test_unbounded_cache_accepts_bound_annotation():
    source = """
        class Engine:
            def __init__(self):
                self.result_cache = {}  # bounded-by: LRU eviction at maxsize
    """
    assert findings(source, rules=["unbounded-cache"]) == []


# ----------------------------------------------------------------------
# swallowed-cancel
# ----------------------------------------------------------------------
CANCEL_BAD = """
    def run(task):
        try:
            task()
        except Exception:
            pass
"""

CANCEL_REFERENCES = """
    def run(task, fail):
        try:
            task()
        except BaseException as exc:
            fail(exc)
"""

CANCEL_RERAISES = """
    def run(task):
        try:
            task()
        except Exception:
            cleanup()
            raise
"""

CANCEL_SIBLING = """
    def run(task):
        try:
            task()
        except QueryCancelled:
            raise
        except Exception:
            pass
"""


def test_swallowed_cancel_fires_on_silent_catch_all():
    found = findings(CANCEL_BAD, rules=["swallowed-cancel"])
    assert [f.symbol for f in found] == ["except Exception"]


@pytest.mark.parametrize(
    "source", [CANCEL_REFERENCES, CANCEL_RERAISES, CANCEL_SIBLING],
    ids=["references-exception", "re-raises", "cancel-sibling-first"],
)
def test_swallowed_cancel_allows_routed_handlers(source):
    assert findings(source, rules=["swallowed-cancel"]) == []


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
def test_layering_fires_on_module_level_lp_import():
    source = """
        from ..width import omega_submodular_width

        def plan():
            return omega_submodular_width
    """
    found = findings(source, path="src/repro/core/plan.py", rules=["layering"])
    assert [(f.symbol, f.line) for f in found] == [("repro.width", 2)]


def test_layering_allows_function_local_lp_import():
    source = """
        def explain():
            from ..width import omega_submodular_width
            return omega_submodular_width
    """
    assert findings(source, path="src/repro/core/plan.py", rules=["layering"]) == []


@pytest.mark.parametrize(
    "path, source, symbol",
    [
        ("src/repro/__init__.py", "from .polymatroid import SetFunction", "repro.polymatroid"),
        ("src/repro/__init__.py", "from . import width", "repro.width"),
        ("src/repro/hypergraph/x.py", "import repro.width.lp", "repro.width.lp"),
        ("src/repro/api/x.py", "from repro.polymatroid.shannon import expression",
         "repro.polymatroid.shannon"),
    ],
    ids=["package-init", "from-dot-import", "absolute", "absolute-from"],
)
def test_layering_resolves_every_import_form(path, source, symbol):
    found = findings(source, path=path, rules=["layering"])
    assert [f.symbol for f in found] == [symbol]


def test_layering_exempts_the_lp_packages_and_outside_modules():
    source = "from ..polymatroid.shannon import expression"
    assert findings(source, path="src/repro/width/lp.py", rules=["layering"]) == []
    assert findings("from repro.width import MMTerm", path="tests/test_x.py",
                    rules=["layering"]) == []


# ----------------------------------------------------------------------
# Framework: fingerprints and baselining
# ----------------------------------------------------------------------
def test_fingerprint_excludes_line_numbers():
    finding = LintFinding(
        rule="guarded-state", path="src/x.py", line=42,
        scope="Scheduler.__init__", symbol="pending", message="m",
    )
    moved = LintFinding(
        rule="guarded-state", path="src/x.py", line=99,
        scope="Scheduler.__init__", symbol="pending", message="m",
    )
    assert finding.fingerprint == moved.fingerprint
    assert "42" not in finding.fingerprint


def test_baseline_splits_findings(tmp_path):
    bad = tmp_path / "sched.py"
    bad.write_text(textwrap.dedent(GUARDED_BAD))
    report = lint_paths([str(tmp_path)], use_baseline=False)
    assert len(report.findings) == 1 and not report.clean
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(report.findings[0].fingerprint + "\n")
    accepted = lint_paths([str(tmp_path)], baseline=str(baseline))
    assert accepted.clean and len(accepted.baselined) == 1


def test_load_baseline_skips_comments(tmp_path):
    path = tmp_path / "baseline.txt"
    path.write_text("# comment\n\nsrc/x.py::rule::scope::sym\n")
    assert load_baseline(str(path)) == {"src/x.py::rule::scope::sym"}


# ----------------------------------------------------------------------
# The live tree and the CLI verb
# ----------------------------------------------------------------------
def test_source_tree_is_lint_clean():
    report = lint_paths([SRC])
    assert report.clean, "\n" + report.describe()


def test_cli_lint_verb(tmp_path, capsys):
    from repro.cli import main

    assert main(["lint", SRC]) == 0
    assert "findings" in capsys.readouterr().out

    bad = tmp_path / "sched.py"
    bad.write_text(textwrap.dedent(GUARDED_BAD))
    output = tmp_path / "report.txt"
    assert main(["lint", str(tmp_path), "--output", str(output)]) == 1
    assert "guarded-state" in output.read_text()
