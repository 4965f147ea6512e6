"""Statistics-driven kernel choices for the virtual machine.

The interpreter (:mod:`repro.exec.vm`) calls relational operators on
:class:`~repro.db.relation.Relation`; which representation runs them is
the storage layer's business alone (:mod:`repro.db.backends` — a binary
operator runs in its left operand's backend kind).  What is left to choose
per operator, :class:`KernelDispatcher` chooses from configuration and the
relations' cached statistics:

* the distinct-count-sized matrix dimensions of an MM step pick the
  Strassen-vs-BLAS multiplication path through the cost model
  (:func:`repro.matmul.cost.preferred_mm_kernel`) instead of a fixed size
  cutoff;
* a select's ``limit``/``order`` pick its delivery (stream, ranked any-k,
  or materialize + bounded sort), and ``morsel_size`` is the chunk size of
  the streaming cursors and the default ``ResultSet`` batch size.

The dispatcher is deliberately deterministic: decisions depend only on
relation statistics and configuration, never on timing, so runs stay
reproducible and differential-testable across backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..constants import DEFAULT_OMEGA
from ..matmul.boolean import resolve_mm_kernel
from ..matmul.cost import STRASSEN_OVERHEAD_FACTOR, preferred_mm_kernel

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


@dataclass
class DispatchStats:
    """Counters of the choices one dispatcher instance has made."""

    mm_strassen: int = 0
    mm_blas: int = 0


class KernelDispatcher:
    """Chooses execution kernels per operator from relation statistics.

    Parameters
    ----------
    omega:
        The MM exponent parameterising the cost model for kernel choice.
    morsel_size:
        Largest chunk (in rows) of a streaming enumeration cursor, and the
        default batch size of a :class:`~repro.api.results.ResultSet`.
    strassen_overhead:
        Constant-factor handicap the sub-cubic MM path must overcome (see
        :data:`repro.matmul.cost.STRASSEN_OVERHEAD_FACTOR`).
    ranked_limit_cap:
        Largest sorted-select ``limit`` served by ranked (any-k)
        enumeration rather than materialize + bounded sort.
    """

    def __init__(
        self,
        omega: float = DEFAULT_OMEGA,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        strassen_overhead: float = STRASSEN_OVERHEAD_FACTOR,
        ranked_limit_cap: int = DEFAULT_RANKED_LIMIT_CAP,
    ) -> None:
        if morsel_size <= 0:
            raise ValueError("morsel_size must be positive")
        self.omega = omega
        self.morsel_size = morsel_size
        self.strassen_overhead = strassen_overhead
        self.ranked_limit_cap = ranked_limit_cap
        self.stats = DispatchStats()

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

    # ------------------------------------------------------------------
    # Matrix-multiplication path
    # ------------------------------------------------------------------
    def mm_kernel(
        self, rows: int, inner: int, cols: int
    ) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """The multiplication kernel for one product shape (``None`` = BLAS).

        The dimensions are distinct-value counts of the encoded relations,
        so this is where the statistics pick the Strassen-vs-naive path —
        through the ω-parameterised cost model rather than a fixed cutoff.
        """
        name = preferred_mm_kernel(
            rows, inner, cols, self.omega, self.strassen_overhead
        )
        if name == "strassen":
            self.stats.mm_strassen += 1
        else:
            self.stats.mm_blas += 1
        return resolve_mm_kernel(name)


#: Shared default instance used by VMs constructed without an explicit
#: dispatcher (stats accumulate process-wide; engines build their own).
DEFAULT_DISPATCHER = KernelDispatcher()
