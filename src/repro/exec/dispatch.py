"""Delivery choices for the virtual machine.

The interpreter (:mod:`repro.exec.vm`) calls relational operators on
:class:`~repro.db.relation.Relation`, whose kernels live in the
columnar store (:mod:`repro.db.backends`), and every matrix product runs
on BLAS.  What is left to choose, :class:`KernelDispatcher`
chooses from configuration: a select's ``limit``/``order`` pick its
delivery (stream, ranked any-k, or materialize + bounded sort), and
``morsel_size`` is the chunk size of the streaming cursors and of
GenericJoin's binding batches, and the default ``ResultSet`` batch size.

The dispatcher is deliberately deterministic: decisions depend only on
configuration, never on timing, so runs stay reproducible and
differential-testable against the reference oracle.
"""

from __future__ import annotations

from typing import Optional

#: Rows per morsel — the largest root chunk a streaming enumeration
#: cursor joins at once and the default ``ResultSet`` batch: sized so one
#: chunk's code arrays (a few int64 columns) stay comfortably inside the
#: per-core cache while still amortizing the NumPy kernel launch overhead.
DEFAULT_MORSEL_SIZE = 32_768

#: Largest ``limit`` a sorted select is served by ranked (any-k)
#: enumeration.  Each ranked pop is a Python heap operation plus O(tree)
#: vectorized restriction work, so per-row cost is microseconds — far
#: cheaper than scanning a huge output, but slower per row than one
#: bulk materialize + ``nsmallest`` when the caller wants a sizeable
#: fraction of the output anyway.  One morsel's worth of rows is where
#: the bulk path's fixed costs stop dominating.
DEFAULT_RANKED_LIMIT_CAP = DEFAULT_MORSEL_SIZE


class KernelDispatcher:
    """Chooses how a select is delivered, and the streaming chunk size.

    Parameters
    ----------
    morsel_size:
        Largest chunk (in rows) of a streaming enumeration cursor and
        (in bindings) of a GenericJoin step, and the default batch size of
        a :class:`~repro.api.results.ResultSet`.
    ranked_limit_cap:
        Largest sorted-select ``limit`` served by ranked (any-k)
        enumeration rather than materialize + bounded sort.
    """

    def __init__(
        self,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        ranked_limit_cap: int = DEFAULT_RANKED_LIMIT_CAP,
    ) -> None:
        if morsel_size <= 0:
            raise ValueError("morsel_size must be positive")
        self.morsel_size = morsel_size
        self.ranked_limit_cap = ranked_limit_cap

    # ------------------------------------------------------------------
    # Select delivery
    # ------------------------------------------------------------------
    def ranked_enumeration(self, limit: Optional[int], order: str) -> bool:
        """Whether a sorted select should run as ranked (any-k) enumeration.

        The three deliveries a select can get — ``stream`` (discovery
        order, cursor), ``ranked`` (sorted order, cursor) and materialize
        + bounded sort — are picked here so every strategy agrees.  Ranked
        wins when the caller asked for sorted order *and* bounded the
        output: per-popped-row cost is a heap operation plus O(tree)
        restriction work, so small limits finish in ~``exists`` +
        O(k log n).  Past ``ranked_limit_cap`` rows the bulk materialize +
        ``nsmallest`` path is cheaper per row, and an unlimited sorted
        select always materializes.  Deterministic by design: the decision
        reads configuration, never timing.
        """
        if order != "sorted" or limit is None:
            return False
        if limit > self.ranked_limit_cap:
            return False
        return True


#: Shared default instance used by VMs constructed without an explicit
#: dispatcher (engines build their own).
DEFAULT_DISPATCHER = KernelDispatcher()
