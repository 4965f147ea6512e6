"""The statistics-driven kernel dispatcher: the MM path."""

from __future__ import annotations

from repro.exec import KernelDispatcher
from repro.matmul.cost import preferred_mm_kernel


def test_mm_kernel_choice_follows_cost_model():
    # Tiny products never justify the recursion overhead.
    assert preferred_mm_kernel(8, 8, 8) == "blas"
    # With the overhead handicap waived, large squares flip to Strassen.
    assert preferred_mm_kernel(4096, 4096, 4096, omega=2.0, overhead_factor=1.0) == (
        "strassen"
    )
    dispatcher = KernelDispatcher(strassen_overhead=1.0, omega=2.0)
    assert dispatcher.mm_kernel(4096, 4096, 4096) is not None  # strassen callable
    assert dispatcher.stats.mm_strassen == 1
    assert KernelDispatcher().mm_kernel(8, 8, 8) is None  # BLAS default
