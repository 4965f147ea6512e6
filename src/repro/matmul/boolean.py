"""Boolean matrix multiplication on top of the numeric kernels.

Boolean conjunctive query evaluation only needs to know *whether* a pair is
connected through the eliminated variables, i.e. the Boolean product
``C[i, j] = ∨_k (A[i, k] ∧ B[k, j])``.  The standard reduction computes the
product of the 0/1 matrices and thresholds it; the counting variant keeps
the integer result (path counts through the eliminated variables).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np


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


def boolean_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Boolean product of two 0/1 matrices (a ``bool`` array).

    The operands are multiplied in float32, converted only when they come
    in another dtype.  Every term is non-negative, so a cell's sum is
    positive exactly when one of its terms is: ``> 0`` is exact at any
    inner size and needs no rounding.
    """
    a, b = _operands(a, b)
    return (a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False)) > 0


def counting_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer product of two 0/1 matrices (path counts through the middle).

    Multiplied in float64, which is exact while every count is below 2**53.
    """
    a, b = _operands(a, b)
    return np.rint(a.astype(float) @ b.astype(float))


def _operands(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a, b
