"""Golden pin of the synthetic table data every execution backend measures.

The measured and SQLite backends build their tables with
:func:`repro.storage.data.generate_table_data`, and the result cache keys an
executing cell by its inputs, not by the bytes generated for it.  So the data
for a given schema, row count and seed must never drift: a drift would serve
cached measurements of data the code no longer produces.  Character pools are
drawn with one batched ``choice`` call, which consumes the generator exactly
as one call per string did; that holds only because of how numpy implements
``choice``, so these hashes, recorded with the per-string code, pin it.  Each
case also pins the generator's next draw, so a change in how much of the
stream generation consumes is caught even when the arrays agree.
"""

import hashlib

import numpy as np
import pytest

from repro.grid.spec import resolve_workload
from repro.storage.data import generate_column_data, generate_table_data
from repro.workload.schema import Column

#: (workload id, rows, seed) -> (sha256 of every column, generator's next draw).
TABLES = {
    ("tpch:partsupp@1", 2_000, 0): (
        "63e5c07c3c68388d35da37a60bba7da648606d00404ed7396458ba5c23c8252a",
        3180480310658276688,
    ),
    ("tpch:orders@1", 20_000, 0): (
        "42a9f795368b1b5d9c7bbd0f19628077a80554bf824dbc66b2675fcbdc222023",
        1889237647019812665,
    ),
    ("tpch:lineitem@1", 20_000, 0): (
        "f9c779dfa4d507ad88ebb84edd68dda7f64e3370af20083a792633f3bd3b1bab",
        1907356229415976503,
    ),
    ("tpch:partsupp@1", 2_000, 7): (
        "3d27791c033ec847207eba5907190d95297f9527fbe8635ac4aa8b4ef0641d04",
        2283272160525326835,
    ),
    ("telemetry:wide", 2_000, 3): (
        "799bccb5aeccba55e1283a6a6d0d048746bcecaabeb86e3132ca92ef2a0a6d3d",
        4234204595552471205,
    ),
}

#: Character widths swept one column at a time, odd and even, 1 to 199.
WIDTHS = (1, 2, 3, 7, 10, 15, 25, 44, 79, 101, 117, 152, 199)
WIDTHS_DIGEST = "a054aa1121ae7e8e89877a7635b99bafc4fa4d0909714c47c75baec581f92836"


def _next_draw(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


@pytest.mark.parametrize("workload_id, rows, seed", sorted(TABLES))
def test_table_data_matches_the_recorded_hash(workload_id, rows, seed):
    schema = resolve_workload(workload_id).schema
    rng = np.random.default_rng(seed)
    data = generate_table_data(schema, rows, random_state=rng)
    digest = hashlib.sha256()
    for name, values in data.items():
        digest.update(name.encode())
        digest.update(values.dtype.str.encode())
        digest.update(values.tobytes())
    assert (digest.hexdigest(), _next_draw(rng)) == TABLES[(workload_id, rows, seed)]


def test_character_columns_match_the_recorded_hash_at_every_width():
    digest = hashlib.sha256()
    for width in WIDTHS:
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            column = Column("c", width, f"varchar({width})")
            values = generate_column_data(column, 500, random_state=rng)
            digest.update(values.dtype.str.encode())
            digest.update(values.tobytes())
            digest.update(str(_next_draw(rng)).encode())
    assert digest.hexdigest() == WIDTHS_DIGEST
