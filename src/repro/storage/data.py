"""Synthetic table data generation.

The paper loads TPC-H data generated with ``dbgen``; this module provides the
offline equivalent: deterministic, seedable synthetic data for any
:class:`~repro.workload.schema.TableSchema`.  Values only need to be *shaped*
like the real data (correct byte widths, plausible repetition for the
compression experiments), not semantically meaningful, because every
experiment in the paper measures I/O volume rather than query answers.

Columns are generated as numpy arrays:

* integer-typed columns get uniform integers with a configurable number of
  distinct values (keys get mostly-unique values, flags get very few),
* decimal/double columns get uniform floats,
* date columns get integers in a year-range,
* character columns get fixed-width byte strings drawn from a configurable
  dictionary of distinct values, which is what makes dictionary compression
  effective on them.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.workload.schema import Column, TableSchema

RandomState = Union[int, np.random.Generator, None]

#: Heuristic number of distinct values per SQL type, used when the caller does
#: not override it.  Low-cardinality columns compress well with dictionaries.
_DEFAULT_DISTINCT = {
    "int": 100_000,
    "integer": 100_000,
    "bigint": 1_000_000,
    "decimal": 50_000,
    "double": 50_000,
    "float": 50_000,
    "date": 2_500,
    "bool": 2,
}

#: Character columns repeat values from a pool of this many distinct strings.
_DEFAULT_STRING_DISTINCT = 1_000


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def _is_character(column: Column) -> bool:
    return column.sql_type.startswith(("char", "varchar", "text", "string"))


def generate_column_data(
    column: Column,
    row_count: int,
    distinct_values: Optional[int] = None,
    random_state: RandomState = 0,
) -> np.ndarray:
    """Generate one column's values.

    Returns an integer array for numeric/date columns and a fixed-width byte
    string array (dtype ``S<width>``) for character columns.
    """
    if row_count < 0:
        raise ValueError("row_count must be non-negative")
    rng = _rng(random_state)

    if _is_character(column):
        pool_size = distinct_values or min(_DEFAULT_STRING_DISTINCT, max(1, row_count))
        alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype="S1")
        # One draw for the whole pool, viewed as fixed-width strings: the
        # same stream as one ``choice`` per string, without the Python loop.
        pool = rng.choice(alphabet, size=(pool_size, column.width)).view(
            f"S{column.width}"
        )[:, 0]
        return rng.choice(pool, size=row_count)

    base_type = column.sql_type or "int"
    distinct = distinct_values or _DEFAULT_DISTINCT.get(base_type, 100_000)
    distinct = max(1, min(distinct, max(1, row_count)))
    if base_type in ("decimal", "double", "float"):
        values = rng.integers(0, distinct, size=row_count)
        return values.astype(np.float64) + rng.random(row_count)
    return rng.integers(0, distinct, size=row_count).astype(np.int64)


def generate_table_data(
    schema: TableSchema,
    row_count: Optional[int] = None,
    distinct_values: Optional[Dict[str, int]] = None,
    random_state: RandomState = 0,
) -> Dict[str, np.ndarray]:
    """Generate data for every column of ``schema``.

    Parameters
    ----------
    schema:
        The table to generate.
    row_count:
        Number of rows to generate; defaults to ``schema.row_count`` (which
        can be very large — pass an explicit smaller count for simulation).
    distinct_values:
        Optional per-column override of the number of distinct values.
    random_state:
        Seed or generator; the same seed always produces the same data.
    """
    rng = _rng(random_state)
    rows = schema.row_count if row_count is None else row_count
    overrides = distinct_values or {}
    data = {}
    for column in schema.columns:
        data[column.name] = generate_column_data(
            column,
            rows,
            distinct_values=overrides.get(column.name),
            random_state=rng,
        )
    return data
