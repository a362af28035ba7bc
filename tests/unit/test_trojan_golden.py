"""Golden fixture: Trojan's layouts on every workload of the ``full`` grid.

Every literal below was recorded from Trojan as it stood before the bitmask
pre-filter replaced the per-group enumeration (see
:meth:`repro.algorithms.trojan.TrojanAlgorithm._exhaustive_candidates`).  The
pre-filter must be exact: the same layouts and the same run metadata, down to
``candidates_enumerated`` counting every group of the search space.  Trojan
never consults the cost model, so every model of the grid must yield the
same layout.
"""

import pytest

from repro.algorithms.trojan import TrojanAlgorithm
from repro.grid.spec import builtin_grid, resolve_cost_model, resolve_workload

GOLDEN_LAYOUTS = {
    "tpch:lineitem@1": [
        ("orderkey",),
        ("partkey",),
        ("suppkey",),
        ("linenumber", "comment"),
        ("quantity",),
        ("extendedprice", "discount"),
        ("tax", "returnflag", "linestatus"),
        ("shipdate",),
        ("commitdate", "receiptdate"),
        ("shipinstruct",),
        ("shipmode",),
    ],
    "tpch:orders@1": [
        ("orderkey",),
        ("custkey",),
        ("orderstatus",),
        ("totalprice",),
        ("orderdate",),
        ("orderpriority",),
        ("clerk",),
        ("shippriority",),
        ("comment",),
    ],
    "tpch:partsupp@1": [
        ("partkey", "suppkey"),
        ("availqty",),
        ("supplycost",),
        ("comment",),
    ],
    "tpch:part@1": [
        ("partkey",),
        ("name",),
        ("mfgr",),
        ("brand", "container"),
        ("type",),
        ("size",),
        ("retailprice", "comment"),
    ],
    "tpch:customer@1": [
        ("custkey",),
        ("name", "address", "comment"),
        ("nationkey",),
        ("phone", "acctbal"),
        ("mktsegment",),
    ],
    "tpch:supplier@1": [
        ("suppkey",),
        ("name", "address", "phone"),
        ("nationkey",),
        ("acctbal",),
        ("comment",),
    ],
    "ssb:lineorder@1": [
        (
            "orderkey", "linenumber", "orderpriority", "shippriority",
            "ordtotalprice", "tax", "commitdate", "shipmode",
        ),
        ("custkey",),
        ("partkey",),
        ("suppkey", "revenue"),
        ("orderdate",),
        ("quantity", "extendedprice", "discount"),
        ("supplycost",),
    ],
    "ssb:customer@1": [
        ("custkey",),
        ("name", "address", "phone", "mktsegment"),
        ("city",),
        ("nation",),
        ("region",),
    ],
    "ssb:part@1": [
        ("partkey",),
        ("name", "color", "type", "size", "container"),
        ("mfgr",),
        ("category",),
        ("brand1",),
    ],
    "star:default": [
        ("orderkey", "linenumber", "m2", "m3", "m6", "m7"),
        ("d1_key",),
        ("d2_key",),
        ("d3_key", "m1"),
        ("d4_key",),
        ("m4",),
        ("m5", "m9"),
        ("m8",),
        ("priority", "shipmode", "comment"),
    ],
    "telemetry:wide": [
        ("ts", "device_id", "site"),
        (
            "s1", "s2", "s9", "s13", "s14", "s15", "s21", "s22",
            "s28", "s29", "s30", "s31", "s35", "s38", "s39", "s40",
        ),
        ("s3",),
        ("s4", "s5"),
        ("s6", "s7"),
        ("s8",),
        ("s10", "s11", "s12"),
        ("s16", "s17", "s18", "s19", "s20"),
        ("s23",),
        ("s24",),
        ("s25", "s26"),
        ("s27",),
        ("s32",),
        ("s33", "s34"),
        ("s36", "s37"),
    ],
}

#: (candidates_enumerated, candidates_after_pruning, groups_selected_by_knapsack)
#: at the default threshold of 0.4.
GOLDEN_COUNTS = {
    "tpch:lineitem@1": (65519, 6, 4),
    "tpch:orders@1": (502, 0, 0),
    "tpch:partsupp@1": (26, 1, 1),
    "tpch:part@1": (502, 2, 2),
    "tpch:customer@1": (247, 12, 2),
    "tpch:supplier@1": (120, 3, 1),
    "ssb:lineorder@1": (12, 4, 3),
    "ssb:customer@1": (247, 37, 1),
    "ssb:part@1": (502, 64, 1),
    "star:default": (48, 4, 4),
    "telemetry:wide": (64, 14, 9),
}

FULL = builtin_grid("full")


def test_golden_covers_the_full_grid():
    assert sorted(GOLDEN_LAYOUTS) == sorted(FULL.workloads) == sorted(GOLDEN_COUNTS)


@pytest.mark.parametrize("model_id", FULL.cost_models)
@pytest.mark.parametrize("workload_id", FULL.workloads)
def test_layout_and_metadata_are_unchanged(workload_id, model_id):
    workload = resolve_workload(workload_id)
    algorithm = TrojanAlgorithm()
    layout = algorithm.compute(workload, resolve_cost_model(model_id))
    assert layout.as_names() == GOLDEN_LAYOUTS[workload_id]
    enumerated, after_pruning, selected = GOLDEN_COUNTS[workload_id]
    assert algorithm.last_run_metadata() == {
        "candidates_enumerated": enumerated,
        "candidates_after_pruning": after_pruning,
        "groups_selected_by_knapsack": selected,
        "interestingness_threshold": 0.4,
    }
