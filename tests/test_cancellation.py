"""Timeout and cancellation: tokens, the VM's cancellation points, partial results.

Everything here is deterministic — expired deadlines (``timeout=0``),
pre-cancelled tokens, and a token subclass that trips after a fixed
number of cooperative checks stand in for wall-clock races.
"""

import json
import os
import sys

import pytest

from repro.api.engine import QueryEngine
from repro.api.errors import QueryCancelledError, QueryTimeout
from repro.db import Database, Relation
from repro.db.query import parse_query
from repro.exec.dispatch import KernelDispatcher
from repro.exec.vm import CancellationToken, QueryCancelled


def chain_db():
    pairs = [(i, (i * 7 + 3) % 11) for i in range(40)]
    db = Database()
    for name in ("R", "S"):
        db[name] = Relation.from_pairs(("a", "b"), pairs, name)
    return db


CHAIN = "Q(X, Z) :- R(X, Y), S(Y, Z)"


class TripAfter(CancellationToken):
    """Fires after a fixed number of cooperative checks (deterministic)."""

    def __init__(self, checks):
        super().__init__()
        self.checks_left = checks

    def check(self):
        self.checks_left -= 1
        if self.checks_left <= 0:
            self.cancel()
        super().check()


# ----------------------------------------------------------------------
# The token itself
# ----------------------------------------------------------------------
class TestToken:
    def test_expired_deadline_marks_timeout(self):
        token = CancellationToken.with_deadline(0)
        assert token.cancelled
        assert token.timed_out
        with pytest.raises(QueryCancelled) as exc:
            token.check()
        assert exc.value.timed_out

    def test_explicit_cancel_is_not_a_timeout(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        assert not token.timed_out
        with pytest.raises(QueryCancelled) as exc:
            token.check()
        assert not exc.value.timed_out

    def test_remaining_and_deadline(self):
        assert CancellationToken().remaining() is None
        token = CancellationToken.with_deadline(60)
        assert 0 < token.remaining() <= 60
        assert not token.cancelled


# ----------------------------------------------------------------------
# Engine verbs under expired deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("verb", ["exists", "count"])
    def test_timeout_zero_is_deterministic(self, verb):
        engine = QueryEngine(chain_db())
        query = parse_query(CHAIN)
        with pytest.raises(QueryTimeout) as exc:
            getattr(engine, verb)(query, timeout=0)
        error = exc.value
        assert error.timeout == 0
        assert error.verb == verb
        assert error.query is query
        assert "deadline" in str(error)

    def test_partial_result_is_structured(self):
        engine = QueryEngine(chain_db())
        with pytest.raises(QueryTimeout) as exc:
            engine.count(parse_query(CHAIN), timeout=0)
        partial = exc.value.result
        assert partial is not None
        assert partial.timed_out
        assert partial.answer is False
        assert partial.execution is not None
        assert partial.execution.timed_out
        assert partial.execution.cancelled_ops >= 0
        assert partial.seconds >= 0
        # The partial document survives the wire format.
        document = json.loads(json.dumps(partial.to_dict()))
        assert document["timed_out"] is True

    def test_timeout_is_a_timeout_error(self):
        engine = QueryEngine(chain_db())
        with pytest.raises(TimeoutError):
            engine.exists(parse_query(CHAIN), timeout=0)

    def test_select_deadline_counts_from_first_pull(self):
        engine = QueryEngine(chain_db())
        rows = engine.select(parse_query(CHAIN), timeout=0)
        # Building the lazy ResultSet does not start the clock...
        with pytest.raises(QueryTimeout):
            rows.to_rows()  # ...the first pull does.

    def test_generous_deadline_does_not_fire(self):
        engine = QueryEngine(chain_db())
        result = engine.count(parse_query(CHAIN), timeout=60)
        assert not result.timed_out
        assert result.row_count >= 1


# ----------------------------------------------------------------------
# Explicit cancellation (server drain / client disconnect path)
# ----------------------------------------------------------------------
class TestExplicitCancel:
    def test_pre_cancelled_token_raises_cancelled_not_timeout(self):
        engine = QueryEngine(chain_db())
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError) as exc:
            engine.count(parse_query(CHAIN), token=token)
        assert not isinstance(exc.value, QueryTimeout)
        assert exc.value.result is not None
        assert not exc.value.result.timed_out

    def test_mid_run_cancel_keeps_completed_traces(self):
        """A token firing after N operator checks abandons the rest."""
        engine = QueryEngine(chain_db())
        with pytest.raises(QueryCancelledError) as exc:
            engine.count(parse_query(CHAIN), token=TripAfter(3))
        partial = exc.value.result
        assert partial is not None
        assert partial.execution is not None
        assert partial.execution.cancelled_ops >= 1
        assert "abandoned" in partial.execution.describe()


# ----------------------------------------------------------------------
# Caches stay correct across cancellations
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def test_timeout_does_not_poison_answers(self):
        query = parse_query(CHAIN)
        expected = QueryEngine(chain_db()).count(query).row_count
        engine = QueryEngine(chain_db())
        with pytest.raises(QueryTimeout):
            engine.count(query, timeout=0)
        # Re-asking without a deadline gives the correct, full answer.
        result = engine.count(query)
        assert result.row_count == expected
        assert not result.timed_out

    def test_mid_run_cancel_then_reask(self):
        query = parse_query(CHAIN)
        engine = QueryEngine(chain_db())
        expected = QueryEngine(chain_db()).count(query).row_count
        with pytest.raises(QueryCancelledError):
            engine.count(query, token=TripAfter(2))
        assert engine.count(query).row_count == expected

    def test_timeout_then_other_verbs(self):
        query = parse_query(CHAIN)
        engine = QueryEngine(chain_db())
        with pytest.raises(QueryTimeout):
            engine.select(query, timeout=0).to_rows()
        assert engine.exists(query).answer is True
        rows = engine.select(query).to_rows()
        assert len(rows) == engine.count(query).row_count


# ----------------------------------------------------------------------
# Strategy-specific cooperative checks
# ----------------------------------------------------------------------
class TestStrategyCoverage:
    @pytest.mark.parametrize("strategy", ["naive", "generic_join", "yannakakis"])
    def test_every_strategy_observes_the_token(self, strategy):
        engine = QueryEngine(chain_db())
        with pytest.raises(QueryTimeout):
            engine.count(parse_query(CHAIN), strategy=strategy, timeout=0)

    def test_wcoj_kernel_checks_per_morsel(self):
        # GenericJoin's kernel consults the token once per morsel of
        # bindings and level; with one-binding morsels that is once per
        # binding.  A token tripping on the kernel's second check cancels
        # the query from inside the kernel's search, not at an operator
        # boundary.
        class Witness(TripAfter):
            callers = ()

            def check(self):
                caller = sys._getframe(1).f_code
                self.callers += ((os.path.basename(caller.co_filename), caller.co_name),)
                super().check()

        kernel = ("backends.py", "search")
        engine = QueryEngine(
            chain_db(), dispatcher=KernelDispatcher(morsel_size=1), result_cache_size=0
        )
        query = parse_query(CHAIN)
        untripped = Witness(10**9)
        engine.count(query, strategy="generic_join", token=untripped)
        assert untripped.callers.count(kernel) > 10
        trip = untripped.callers.index(kernel) + 2
        token = Witness(trip)
        with pytest.raises(QueryCancelledError):
            engine.count(query, strategy="generic_join", token=token)
        assert len(token.callers) == trip and token.callers[-1] == kernel

    def test_boolean_omega_boundary_check(self):
        # The non-lowered omega path checks the token at the strategy
        # boundary before execution starts.
        engine = QueryEngine(chain_db())
        query = parse_query("Q() :- R(X, Y), S(Y, Z)")
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            engine.ask(query, token=token)
