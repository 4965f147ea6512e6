"""The statistics-driven kernel dispatcher: operand resolution and MM path."""

from __future__ import annotations

from repro.db.relation import Relation
from repro.exec import KernelDispatcher
from repro.matmul.cost import preferred_mm_kernel


def test_dispatcher_resolves_mixed_backends_by_size():
    dispatcher = KernelDispatcher(convert_threshold=100)
    columnar = Relation.from_columns(
        ("X", "Y"), [list(range(200)), list(range(200))], backend="columnar"
    )
    tiny_set = Relation(("Y", "Z"), [(1, 2), (3, 4)], backend="set")
    left, right = dispatcher.resolve_operands(columnar, tiny_set)
    assert left.backend_kind == right.backend_kind == "columnar"
    # Below the threshold nothing is converted.
    small_columnar = Relation.from_columns(
        ("X", "Y"), [[1, 2], [3, 4]], backend="columnar"
    )
    left, right = dispatcher.resolve_operands(small_columnar, tiny_set)
    assert (left.backend_kind, right.backend_kind) == ("columnar", "set")
    # Same-backend pairs pass through untouched.
    assert dispatcher.resolve_operands(tiny_set, tiny_set) == (tiny_set, tiny_set)


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
