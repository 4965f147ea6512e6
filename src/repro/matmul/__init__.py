"""Matrix-multiplication substrate: Boolean/counting products and the cost model."""

from .boolean import boolean_multiply, counting_multiply, matrix_from_pairs
from .cost import mm_exponent, predicted_triangle_exponent, triangle_threshold
from .rectangular import omega_rectangular, rectangular_cost

__all__ = [
    "boolean_multiply",
    "counting_multiply",
    "matrix_from_pairs",
    "mm_exponent",
    "omega_rectangular",
    "predicted_triangle_exponent",
    "rectangular_cost",
    "triangle_threshold",
]
