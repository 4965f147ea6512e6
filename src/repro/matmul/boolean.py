"""Boolean matrix multiplication on top of the numeric kernels.

Boolean conjunctive query evaluation only needs to know *whether* a pair is
connected through the eliminated variables, i.e. the Boolean product
``C[i, j] = ∨_k (A[i, k] ∧ B[k, j])``.  The standard reduction computes the
integer product and thresholds it; counting variants keep the integer
result (used by the examples that count homomorphic images).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from .strassen import strassen_multiply


def matrix_from_pairs(
    pairs: Iterable[Tuple[object, object]],
    row_index: Dict[object, int],
    col_index: Dict[object, int],
    shape: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """A 0/1 matrix from (row key, column key) pairs and their index maps.

    This is the ingestion primitive the relational layer uses to turn
    deduplicated key pairs (straight off a columnar backend's code arrays)
    into a Boolean operand: the nonzero entries are set in one vectorized
    fancy-indexing assignment.  Pairs whose keys are missing from a
    caller-supplied index are skipped.
    """
    if shape is None:
        shape = (len(row_index), len(col_index))
    matrix = np.zeros(shape, dtype=np.uint8)
    rows: list = []
    cols: list = []
    for row_key, col_key in pairs:
        i = row_index.get(row_key)
        j = col_index.get(col_key)
        if i is not None and j is not None:
            rows.append(i)
            cols.append(j)
    if rows:
        matrix[np.asarray(rows), np.asarray(cols)] = 1
    return matrix


def boolean_multiply(
    a: np.ndarray,
    b: np.ndarray,
    kernel: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """The Boolean product of two 0/1 matrices (result is a ``bool`` array)."""
    counts = counting_multiply(a, b, kernel=kernel)
    return counts > 0.5


def counting_multiply(
    a: np.ndarray,
    b: np.ndarray,
    kernel: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """The integer product of two 0/1 matrices (path counts through the middle)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    a_num = a.astype(float)
    b_num = b.astype(float)
    if kernel is None:
        product = a_num @ b_num
    else:
        product = kernel(a_num, b_num)
    return np.rint(product)


def boolean_multiply_strassen(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product computed through the Strassen kernel (for tests/benches)."""
    return boolean_multiply(a, b, kernel=strassen_multiply)


def has_any_product_entry(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the Boolean product has at least one ``True`` entry.

    This is the primitive the Boolean-query engine needs after the final
    matrix multiplication step (e.g. ``M(X,Z) ⋈ T(X,Z)`` in Figure 1 is a
    masked version of this check).
    """
    if a.size == 0 or b.size == 0:
        return False
    return bool(np.any(boolean_multiply(a, b)))
