"""Loading relations from delimited text files (CSV/TSV).

The front door (``LOAD R FROM 'edges.csv'`` in the query language, or
:meth:`Database.load_csv` from Python) funnels through
:func:`load_table`: delimiter inferred from the extension, a header row
auto-detected, and per-column int/str types inferred over the whole
column so ``"42"`` in an id column becomes ``42`` everywhere — matching
how the in-memory constructors are used throughout the test corpus.
Rows land via :meth:`Relation.from_columns`, the vectorized bulk path,
not tuple-at-a-time appends.
"""

from __future__ import annotations

import csv
import os
import re
from typing import List, Optional, Sequence, Tuple, Union

from .relation import Relation

__all__ = ["infer_column", "load_table", "sniff_delimiter"]

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Extensions that imply a tab delimiter; everything else defaults to ','.
_Tab_EXTENSIONS = (".tsv", ".tab")


def sniff_delimiter(path: Union[str, "os.PathLike[str]"]) -> str:
    """The delimiter implied by ``path``'s extension (tab for .tsv/.tab)."""
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    return "\t" if suffix in _Tab_EXTENSIONS else ","


def _looks_like_header(row: Sequence[str]) -> bool:
    """Whether a first row reads as column names rather than data.

    Every cell must be an identifier and at least one must not parse as
    an integer — so ``x,y`` is a header while ``1,2`` (and the pure
    numeric identifier-less case) is data.  A row of numeric-looking
    identifiers like ``a1,b2`` still counts as a header.
    """
    if not row:
        return False
    if not all(_IDENTIFIER.match(cell) for cell in row):
        return False
    return any(not _is_int(cell) for cell in row)


def _is_int(text: str) -> bool:
    try:
        int(text, 10)
    except ValueError:
        return False
    return True


def infer_column(values: Sequence[str]) -> List[object]:
    """Type a raw string column: all-int parses to ints, anything else stays str.

    The inference is per *column*, not per cell — a column holding
    ``["1", "2", "x"]`` keeps every value as a string so the column stays
    homogeneous (mixed int/str cells would never join against either
    type cleanly).  Empty cells count as non-integer.
    """
    if values and all(_is_int(value) for value in values):
        return [int(value, 10) for value in values]
    return list(values)


def load_table(
    path: Union[str, "os.PathLike[str]"],
    *,
    name: Optional[str] = None,
    delimiter: Optional[str] = None,
    header: Union[bool, str] = "auto",
) -> Relation:
    """Read a delimited text file into a :class:`Relation`.

    Parameters
    ----------
    path:
        The file to read.  ``.tsv``/``.tab`` extensions imply a tab
        delimiter; everything else defaults to comma.  Quoting follows
        standard CSV rules (``csv.reader``), so quoted cells may contain
        the delimiter or newlines.
    name:
        Relation name; defaults to the file's stem (``edges.csv`` →
        ``edges``).
    delimiter:
        Explicit delimiter, overriding the extension-based default.
    header:
        ``True`` (first row is column names), ``False`` (no header;
        columns are named ``c0, c1, ...``), or ``"auto"`` (default): the
        first row is a header iff every cell is an identifier and at
        least one is non-numeric.

    Raises
    ------
    ValueError
        For an empty file (no schema to infer), ragged rows, or an
        invalid ``header`` argument.
    """
    if header not in (True, False, "auto"):
        raise ValueError(f"header must be True, False, or 'auto'; got {header!r}")
    if delimiter is None:
        delimiter = sniff_delimiter(path)
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"cannot load {os.fspath(path)!r}: file has no rows")

    first = rows[0]
    has_header = _looks_like_header(first) if header == "auto" else bool(header)
    if has_header:
        schema: Tuple[str, ...] = tuple(first)
        data = rows[1:]
    else:
        schema = tuple(f"c{i}" for i in range(len(first)))
        data = rows

    width = len(schema)
    for index, row in enumerate(data):
        if len(row) != width:
            line = index + (2 if has_header else 1)
            raise ValueError(
                f"cannot load {os.fspath(path)!r}: row at line {line} has "
                f"{len(row)} fields, expected {width}"
            )

    columns = [
        infer_column([row[position] for row in data]) for position in range(width)
    ]
    if name is None:
        name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return Relation.from_columns(schema, columns, name)
