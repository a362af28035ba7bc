"""Golden fixture: HillClimb, AutoPart and HYRISE on every cell of the ``full`` grid.

Every literal below was recorded from the three algorithms as they stood
before they shared one pairwise-merge search
(:meth:`repro.cost.evaluator.CostEvaluator.greedy_merge`), when each ran its
own loop over ``evaluate_merge``.  The search must be exact: the same layout,
the same estimated cost to the last bit, the same ``cost_evaluations`` (part
of every cached grid payload) and the same run metadata.  The kernel's
``final_cost`` equals the estimated cost bit for bit in every cell.
"""

from itertools import product

import pytest

from repro.core.algorithm import get_algorithm
from repro.grid.spec import builtin_grid, resolve_cost_model, resolve_workload

#: (algorithm, workload, cost model) -> (layout, estimated cost as
#: ``float.hex``, cost evaluations, details).  A layout lists its groups in
#: canonical order, separated by `` | ``, each group by attribute name.
#: Details are ``(iterations, merges)`` for HillClimb and AutoPart; for HYRISE
#: they are its ``groups_after_subgraph_merge`` and ``final_groups``
#: metadata, in list order, each group by attribute index.
GOLDEN = {
    ('hillclimb', 'tpch:lineitem@1', 'hdd'): (
        (
            'orderkey | partkey | suppkey | linenumber | quantity | '
            'extendedprice discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode | comment'
        ),
        '0x1.16e209a4fa0f3p+5', 395,
        (4, 3),
    ),
    ('autopart', 'tpch:lineitem@1', 'hdd'): (
        (
            'orderkey | partkey | suppkey | linenumber comment | quantity | '
            'extendedprice discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode'
        ),
        '0x1.16e209a4fa0f3p+5', 145,
        (2, 1),
    ),
    ('hyrise', 'tpch:lineitem@1', 'hdd'): (
        (
            'orderkey | partkey | suppkey | linenumber comment | quantity | '
            'extendedprice discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode'
        ),
        '0x1.16e209a4fa0f3p+5', 92,
        (
            '0 | 2 | 5 6 | 1 | 4 | 10 | 14 | 7 9 | 8 | 11 12 | 13 | 3 15',
            '0 | 2 | 5 6 | 1 | 4 | 10 | 14 | 7 9 | 8 | 11 12 | 13 | 3 15',
        ),
    ),
    ('hillclimb', 'tpch:lineitem@1', 'hdd:small-buffer'): (
        (
            'orderkey partkey suppkey quantity extendedprice discount returnflag shipdate commitdate receiptdate | '
            'linenumber | tax | linestatus | shipinstruct shipmode | comment'
        ),
        '0x1.e6d81801f3c72p+8', 661,
        (11, 10),
    ),
    ('autopart', 'tpch:lineitem@1', 'hdd:small-buffer'): (
        (
            'orderkey partkey suppkey quantity extendedprice discount shipdate commitdate receiptdate shipmode | '
            'linenumber comment | tax linestatus | returnflag | shipinstruct'
        ),
        '0x1.f91cff83768f2p+8', 355,
        (9, 8),
    ),
    ('hyrise', 'tpch:lineitem@1', 'hdd:small-buffer'): (
        (
            'orderkey partkey suppkey quantity extendedprice discount shipdate commitdate receiptdate shipmode | '
            'linenumber comment | tax linestatus | returnflag | shipinstruct'
        ),
        '0x1.f91cff83768f2p+8', 237,
        (
            '5 6 | 0 2 | 1 | 4 | 10 | 14 | 7 9 | 8 | 11 12 | 13 | 3 15',
            '7 9 | 8 | 13 | 3 15 | 0 1 2 4 5 6 10 11 12 14',
        ),
    ),
    ('hillclimb', 'tpch:lineitem@1', 'mainmemory'): (
        (
            'orderkey | partkey | suppkey | linenumber | quantity | '
            'extendedprice | discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode | comment'
        ),
        '0x1.0a755e50ee2f2p+2', 317,
        (3, 2),
    ),
    ('autopart', 'tpch:lineitem@1', 'mainmemory'): (
        (
            'orderkey | partkey | suppkey | linenumber comment | quantity | '
            'extendedprice | discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode'
        ),
        '0x1.0a755e50ee2f2p+2', 79,
        (1, 0),
    ),
    ('hyrise', 'tpch:lineitem@1', 'mainmemory'): (
        (
            'orderkey | partkey | suppkey | linenumber comment | quantity | '
            'extendedprice | discount | tax linestatus | returnflag | shipdate | '
            'commitdate receiptdate | shipinstruct | shipmode'
        ),
        '0x1.0a755e50ee2f2p+2', 101,
        (
            '0 | 2 | 5 | 6 | 1 | 4 | 10 | 14 | 7 9 | 8 | 11 12 | 13 | 3 15',
            '0 | 2 | 5 | 6 | 1 | 4 | 10 | 14 | 7 9 | 8 | 11 12 | 13 | 3 15',
        ),
    ),
    ('hillclimb', 'tpch:orders@1', 'hdd'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.10d0412366ccfp+2', 37,
        (1, 0),
    ),
    ('autopart', 'tpch:orders@1', 'hdd'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.10d0412366ccfp+2', 37,
        (1, 0),
    ),
    ('hyrise', 'tpch:orders@1', 'hdd'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.10d0412366ccfp+2', 52,
        (
            '0 | 1 | 3 | 4 | 2 | 5 | 7 | 8 | 6',
            '0 | 1 | 3 | 4 | 2 | 5 | 7 | 8 | 6',
        ),
    ),
    ('hillclimb', 'tpch:orders@1', 'hdd:small-buffer'): (
        (
            'orderkey custkey orderdate | orderstatus | totalprice | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.8d514f3d4ca2ep+5', 86,
        (3, 2),
    ),
    ('autopart', 'tpch:orders@1', 'hdd:small-buffer'): (
        (
            'orderkey custkey orderdate | orderstatus | totalprice | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.8d514f3d4ca2ep+5', 86,
        (3, 2),
    ),
    ('hyrise', 'tpch:orders@1', 'hdd:small-buffer'): (
        (
            'orderkey custkey orderdate | orderstatus | totalprice | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.8d514f3d4ca2ep+5', 41,
        (
            '3 | 0 1 4 | 2 | 5 | 7 | 8 | 6',
            '3 | 0 1 4 | 2 | 5 | 7 | 8 | 6',
        ),
    ),
    ('hillclimb', 'tpch:orders@1', 'mainmemory'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.4a0436c665aa7p-1', 37,
        (1, 0),
    ),
    ('autopart', 'tpch:orders@1', 'mainmemory'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.4a0436c665aa7p-1', 37,
        (1, 0),
    ),
    ('hyrise', 'tpch:orders@1', 'mainmemory'): (
        (
            'orderkey | custkey | orderstatus | totalprice | orderdate | '
            'orderpriority | clerk | shippriority | comment'
        ),
        '0x1.4a0436c665aa7p-1', 52,
        (
            '0 | 1 | 3 | 4 | 2 | 5 | 7 | 8 | 6',
            '0 | 1 | 3 | 4 | 2 | 5 | 7 | 8 | 6',
        ),
    ),
    ('hillclimb', 'tpch:partsupp@1', 'hdd'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.67a3f293d6586p-1', 17,
        (2, 1),
    ),
    ('autopart', 'tpch:partsupp@1', 'hdd'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.67a3f293d6586p-1', 7,
        (1, 0),
    ),
    ('hyrise', 'tpch:partsupp@1', 'hdd'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.67a3f293d6586p-1', 14,
        (
            '0 1 | 2 | 3 | 4',
            '0 1 | 2 | 3 | 4',
        ),
    ),
    ('hillclimb', 'tpch:partsupp@1', 'hdd:small-buffer'): (
        'partkey suppkey availqty supplycost | comment',
        '0x1.65db1cb738422p+2', 21,
        (4, 3),
    ),
    ('autopart', 'tpch:partsupp@1', 'hdd:small-buffer'): (
        'partkey suppkey availqty supplycost | comment',
        '0x1.65db1cb738422p+2', 11,
        (3, 2),
    ),
    ('hyrise', 'tpch:partsupp@1', 'hdd:small-buffer'): (
        'partkey suppkey availqty supplycost | comment',
        '0x1.65db1cb738422p+2', 13,
        (
            '4 | 0 1 2 3',
            '4 | 0 1 2 3',
        ),
    ),
    ('hillclimb', 'tpch:partsupp@1', 'mainmemory'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.70ae536501e25p-4', 17,
        (2, 1),
    ),
    ('autopart', 'tpch:partsupp@1', 'mainmemory'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.70ae536501e25p-4', 7,
        (1, 0),
    ),
    ('hyrise', 'tpch:partsupp@1', 'mainmemory'): (
        'partkey suppkey | availqty | supplycost | comment',
        '0x1.70ae536501e25p-4', 14,
        (
            '0 1 | 2 | 3 | 4',
            '0 1 | 2 | 3 | 4',
        ),
    ),
    ('hillclimb', 'tpch:part@1', 'hdd'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice | comment'
        ),
        '0x1.bcfccc3262201p-1', 37,
        (1, 0),
    ),
    ('autopart', 'tpch:part@1', 'hdd'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice comment'
        ),
        '0x1.bcfccc3262201p-1', 29,
        (1, 0),
    ),
    ('hyrise', 'tpch:part@1', 'hdd'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice comment'
        ),
        '0x1.bcfccc3262201p-1', 43,
        (
            '0 | 3 | 4 | 5 | 1 | 2 | 6 | 7 8',
            '0 | 3 | 4 | 5 | 1 | 2 | 6 | 7 8',
        ),
    ),
    ('hillclimb', 'tpch:part@1', 'hdd:small-buffer'): (
        'partkey | name | mfgr | brand type size container | retailprice | comment',
        '0x1.6ddf3a87cf57fp+3', 101,
        (4, 3),
    ),
    ('autopart', 'tpch:part@1', 'hdd:small-buffer'): (
        'partkey | name | mfgr | brand type size container | retailprice comment',
        '0x1.6ddf3a87cf57fp+3', 75,
        (4, 3),
    ),
    ('hyrise', 'tpch:part@1', 'hdd:small-buffer'): (
        'partkey | name | mfgr | brand type size container | retailprice comment',
        '0x1.6ddf3a87cf57fp+3', 64,
        (
            '0 | 4 | 3 5 | 1 | 2 | 6 | 7 8',
            '0 | 1 | 2 | 7 8 | 3 4 5 6',
        ),
    ),
    ('hillclimb', 'tpch:part@1', 'mainmemory'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice | comment'
        ),
        '0x1.a536d655e28a9p-4', 37,
        (1, 0),
    ),
    ('autopart', 'tpch:part@1', 'mainmemory'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice comment'
        ),
        '0x1.a536d655e28a9p-4', 29,
        (1, 0),
    ),
    ('hyrise', 'tpch:part@1', 'mainmemory'): (
        (
            'partkey | name | mfgr | brand | type | size | container | '
            'retailprice comment'
        ),
        '0x1.a536d655e28a9p-4', 43,
        (
            '0 | 3 | 4 | 5 | 1 | 2 | 6 | 7 8',
            '0 | 3 | 4 | 5 | 1 | 2 | 6 | 7 8',
        ),
    ),
    ('hillclimb', 'tpch:customer@1', 'hdd'): (
        'custkey nationkey | name | address comment | phone acctbal | mktsegment',
        '0x1.4b334b6efd194p-1', 75,
        (4, 3),
    ),
    ('autopart', 'tpch:customer@1', 'hdd'): (
        'custkey nationkey | name | address comment | phone acctbal | mktsegment',
        '0x1.4b334b6efd194p-1', 26,
        (2, 1),
    ),
    ('hyrise', 'tpch:customer@1', 'hdd'): (
        'custkey nationkey | name | address comment | phone acctbal | mktsegment',
        '0x1.4b334b6efd194p-1', 23,
        (
            '1 | 4 5 | 0 3 | 2 7 | 6',
            '1 | 4 5 | 0 3 | 2 7 | 6',
        ),
    ),
    ('hillclimb', 'tpch:customer@1', 'hdd:small-buffer'): (
        'custkey | name address comment | nationkey | phone acctbal | mktsegment',
        '0x1.225fd83b3a196p+3', 75,
        (4, 3),
    ),
    ('autopart', 'tpch:customer@1', 'hdd:small-buffer'): (
        'custkey | name phone acctbal | address comment | nationkey | mktsegment',
        '0x1.f8b805c006700p+2', 26,
        (2, 1),
    ),
    ('hyrise', 'tpch:customer@1', 'hdd:small-buffer'): (
        'custkey | name phone acctbal | address comment | nationkey | mktsegment',
        '0x1.f8b805c006700p+2', 23,
        (
            '0 | 3 | 1 4 5 | 2 7 | 6',
            '0 | 3 | 1 4 5 | 2 7 | 6',
        ),
    ),
    ('hillclimb', 'tpch:customer@1', 'mainmemory'): (
        (
            'custkey | name | address | nationkey | phone acctbal | mktsegment | '
            'comment'
        ),
        '0x1.3532e7b3d8e00p-4', 50,
        (2, 1),
    ),
    ('autopart', 'tpch:customer@1', 'mainmemory'): (
        'custkey | name | address comment | nationkey | phone acctbal | mktsegment',
        '0x1.4c3c18b502abap-4', 16,
        (1, 0),
    ),
    ('hyrise', 'tpch:customer@1', 'mainmemory'): (
        'custkey | name | address comment | nationkey | phone acctbal | mktsegment',
        '0x1.4c3c18b502abap-4', 25,
        (
            '0 | 1 | 3 | 4 5 | 2 7 | 6',
            '0 | 1 | 3 | 4 5 | 2 7 | 6',
        ),
    ),
    ('hillclimb', 'tpch:supplier@1', 'hdd'): (
        'suppkey nationkey | name address phone | acctbal comment',
        '0x1.26505433a3cadp-3', 56,
        (5, 4),
    ),
    ('autopart', 'tpch:supplier@1', 'hdd'): (
        'suppkey nationkey | name address phone | acctbal comment',
        '0x1.26505433a3cadp-3', 56,
        (5, 4),
    ),
    ('hyrise', 'tpch:supplier@1', 'hdd'): (
        'suppkey nationkey | name address phone acctbal | comment',
        '0x1.2927f0d6544bap-3', 26,
        (
            '0 3 | 1 2 | 6 | 4 5',
            '0 3 | 6 | 1 2 4 5',
        ),
    ),
    ('hillclimb', 'tpch:supplier@1', 'hdd:small-buffer'): (
        'suppkey | name address phone | nationkey | acctbal comment',
        '0x1.953272fe7a2cap-1', 53,
        (4, 3),
    ),
    ('autopart', 'tpch:supplier@1', 'hdd:small-buffer'): (
        'suppkey | name address phone | nationkey | acctbal comment',
        '0x1.953272fe7a2cap-1', 53,
        (4, 3),
    ),
    ('hyrise', 'tpch:supplier@1', 'hdd:small-buffer'): (
        'suppkey | name address phone | nationkey | acctbal comment',
        '0x1.953272fe7a2cap-1', 32,
        (
            '0 | 3 | 1 2 | 4 | 5 6',
            '0 | 3 | 5 6 | 1 2 4',
        ),
    ),
    ('hillclimb', 'tpch:supplier@1', 'mainmemory'): (
        'suppkey | name | address | nationkey | phone | acctbal comment',
        '0x1.28e5d2575048fp-7', 37,
        (2, 1),
    ),
    ('autopart', 'tpch:supplier@1', 'mainmemory'): (
        'suppkey | name | address | nationkey | phone | acctbal comment',
        '0x1.28e5d2575048fp-7', 37,
        (2, 1),
    ),
    ('hyrise', 'tpch:supplier@1', 'mainmemory'): (
        'suppkey | name | address | nationkey | phone | acctbal comment',
        '0x1.28e5d2575048fp-7', 28,
        (
            '0 | 1 | 2 | 3 | 4 | 5 6',
            '0 | 1 | 2 | 3 | 4 | 5 6',
        ),
    ),
    ('hillclimb', 'ssb:lineorder@1', 'hdd'): (
        (
            'orderkey | linenumber | custkey | partkey | suppkey revenue | '
            'orderdate | orderpriority | shippriority | '
            'quantity extendedprice discount | ordtotalprice | supplycost | tax | '
            'commitdate | shipmode'
        ),
        '0x1.19e083c637eecp+4', 453,
        (4, 3),
    ),
    ('autopart', 'ssb:lineorder@1', 'hdd'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey | partkey | suppkey revenue | orderdate | '
            'quantity extendedprice discount | supplycost'
        ),
        '0x1.19e083c637eecp+4', 22,
        (1, 0),
    ),
    ('hyrise', 'ssb:lineorder@1', 'hdd'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey | partkey | suppkey revenue | orderdate | '
            'quantity extendedprice discount | supplycost'
        ),
        '0x1.19e083c637eecp+4', 33,
        (
            '0 1 6 7 10 14 15 16 | 8 9 11 | 13 | 2 | 3 | 4 12 | 5',
            '0 1 6 7 10 14 15 16 | 8 9 11 | 13 | 2 | 3 | 4 12 | 5',
        ),
    ),
    ('hillclimb', 'ssb:lineorder@1', 'hdd:small-buffer'): (
        (
            'orderkey | linenumber | '
            'custkey partkey suppkey orderdate revenue supplycost | '
            'orderpriority | shippriority | quantity extendedprice discount | '
            'ordtotalprice | tax | commitdate | shipmode'
        ),
        '0x1.80fa4a9a33ce0p+7', 697,
        (8, 7),
    ),
    ('autopart', 'ssb:lineorder@1', 'hdd:small-buffer'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey partkey suppkey orderdate revenue supplycost | '
            'quantity extendedprice discount'
        ),
        '0x1.80fa4a9a33ce0p+7', 56,
        (5, 4),
    ),
    ('hyrise', 'ssb:lineorder@1', 'hdd:small-buffer'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey partkey suppkey orderdate revenue supplycost | '
            'quantity extendedprice discount'
        ),
        '0x1.80fa4a9a33ce0p+7', 35,
        (
            '0 1 6 7 10 14 15 16 | 8 9 11 | 13 | 2 5 | 3 4 12',
            '0 1 6 7 10 14 15 16 | 8 9 11 | 2 3 4 5 12 13',
        ),
    ),
    ('hillclimb', 'ssb:lineorder@1', 'mainmemory'): (
        (
            'orderkey | linenumber | custkey | partkey | suppkey revenue | '
            'orderdate | orderpriority | shippriority | '
            'quantity extendedprice discount | ordtotalprice | supplycost | tax | '
            'commitdate | shipmode'
        ),
        '0x1.1667c6b8b6954p+1', 453,
        (4, 3),
    ),
    ('autopart', 'ssb:lineorder@1', 'mainmemory'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey | partkey | suppkey revenue | orderdate | '
            'quantity extendedprice discount | supplycost'
        ),
        '0x1.1667c6b8b6954p+1', 22,
        (1, 0),
    ),
    ('hyrise', 'ssb:lineorder@1', 'mainmemory'): (
        (
            'orderkey linenumber orderpriority shippriority ordtotalprice tax commitdate shipmode | '
            'custkey | partkey | suppkey revenue | orderdate | '
            'quantity extendedprice discount | supplycost'
        ),
        '0x1.1667c6b8b6954p+1', 33,
        (
            '0 1 6 7 10 14 15 16 | 8 9 11 | 13 | 2 | 3 | 4 12 | 5',
            '0 1 6 7 10 14 15 16 | 8 9 11 | 13 | 2 | 3 | 4 12 | 5',
        ),
    ),
    ('hillclimb', 'ssb:customer@1', 'hdd'): (
        'custkey city region | name | address | nation | phone | mktsegment',
        '0x1.ef9d780f6854fp-4', 65,
        (3, 2),
    ),
    ('autopart', 'ssb:customer@1', 'hdd'): (
        'custkey city region | name address phone mktsegment | nation',
        '0x1.ef9d780f6854fp-4', 20,
        (3, 2),
    ),
    ('hyrise', 'ssb:customer@1', 'hdd'): (
        'custkey city region | name address phone mktsegment | nation',
        '0x1.ef9d780f6854fp-4', 16,
        (
            '4 | 0 3 5 | 1 2 6 7',
            '4 | 0 3 5 | 1 2 6 7',
        ),
    ),
    ('hillclimb', 'ssb:customer@1', 'hdd:small-buffer'): (
        'custkey city nation region | name | address | phone | mktsegment',
        '0x1.447c796e8cae5p-1', 75,
        (4, 3),
    ),
    ('autopart', 'ssb:customer@1', 'hdd:small-buffer'): (
        'custkey city nation region | name address phone mktsegment',
        '0x1.447c796e8cae5p-1', 21,
        (4, 3),
    ),
    ('hyrise', 'ssb:customer@1', 'hdd:small-buffer'): (
        'custkey city nation region | name address phone mktsegment',
        '0x1.447c796e8cae5p-1', 14,
        (
            '0 3 4 5 | 1 2 6 7',
            '0 3 4 5 | 1 2 6 7',
        ),
    ),
    ('hillclimb', 'ssb:customer@1', 'mainmemory'): (
        'custkey | name | address | city | nation | region | phone | mktsegment',
        '0x1.d102bc72e275ap-8', 29,
        (1, 0),
    ),
    ('autopart', 'ssb:customer@1', 'mainmemory'): (
        'custkey | name address phone mktsegment | city | nation | region',
        '0x1.d102bc72e275ap-8', 11,
        (1, 0),
    ),
    ('hyrise', 'ssb:customer@1', 'mainmemory'): (
        'custkey | name address phone mktsegment | city | nation | region',
        '0x1.d102bc72e275ap-8', 19,
        (
            '0 | 3 | 4 | 5 | 1 2 6 7',
            '0 | 3 | 4 | 5 | 1 2 6 7',
        ),
    ),
    ('hillclimb', 'ssb:part@1', 'hdd'): (
        (
            'partkey | name | mfgr | category | brand1 | color | type | size | '
            'container'
        ),
        '0x1.14684f54f6641p-2', 37,
        (1, 0),
    ),
    ('autopart', 'ssb:part@1', 'hdd'): (
        'partkey | name color type size container | mfgr | category | brand1',
        '0x1.14684f54f6641p-2', 11,
        (1, 0),
    ),
    ('hyrise', 'ssb:part@1', 'hdd'): (
        'partkey | name color type size container | mfgr | category | brand1',
        '0x1.14684f54f6641p-2', 19,
        (
            '0 | 2 | 3 | 4 | 1 5 6 7 8',
            '0 | 2 | 3 | 4 | 1 5 6 7 8',
        ),
    ),
    ('hillclimb', 'ssb:part@1', 'hdd:small-buffer'): (
        'partkey mfgr category brand1 | name | color | type | size | container',
        '0x1.183234761a89cp+1', 101,
        (4, 3),
    ),
    ('autopart', 'ssb:part@1', 'hdd:small-buffer'): (
        'partkey mfgr category brand1 | name color type size container',
        '0x1.183234761a89cp+1', 21,
        (4, 3),
    ),
    ('hyrise', 'ssb:part@1', 'hdd:small-buffer'): (
        'partkey mfgr category brand1 | name color type size container',
        '0x1.183234761a89cp+1', 14,
        (
            '0 2 3 4 | 1 5 6 7 8',
            '0 2 3 4 | 1 5 6 7 8',
        ),
    ),
    ('hillclimb', 'ssb:part@1', 'mainmemory'): (
        (
            'partkey | name | mfgr | category | brand1 | color | type | size | '
            'container'
        ),
        '0x1.dc67dfe32a066p-6', 37,
        (1, 0),
    ),
    ('autopart', 'ssb:part@1', 'mainmemory'): (
        'partkey | name color type size container | mfgr | category | brand1',
        '0x1.dc67dfe32a066p-6', 11,
        (1, 0),
    ),
    ('hyrise', 'ssb:part@1', 'mainmemory'): (
        'partkey | name color type size container | mfgr | category | brand1',
        '0x1.dc67dfe32a066p-6', 19,
        (
            '0 | 2 | 3 | 4 | 1 5 6 7 8',
            '0 | 2 | 3 | 4 | 1 5 6 7 8',
        ),
    ),
    ('hillclimb', 'star:default', 'hdd'): (
        (
            'orderkey | linenumber | d1_key | d2_key | d3_key m1 | d4_key | m2 | '
            'm3 | m4 | m5 m9 | m6 | m7 | m8 | priority shipmode comment'
        ),
        '0x1.377af849323bep+6', 606,
        (5, 4),
    ),
    ('autopart', 'star:default', 'hdd'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | d1_key | d2_key | d3_key m1 | '
            'd4_key | m4 | m5 m9 | m8 | priority shipmode comment'
        ),
        '0x1.377af849323bep+6', 82,
        (2, 1),
    ),
    ('hyrise', 'star:default', 'hdd'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | d1_key | d2_key | d3_key m1 | '
            'd4_key | m4 | m5 m9 | m8 | priority shipmode comment'
        ),
        '0x1.377af849323bep+6', 56,
        (
            '0 1 7 8 11 12 | 15 16 17 | 2 | 13 | 4 6 | 3 | 5 | 9 | 10 14',
            '0 1 7 8 11 12 | 15 16 17 | 2 | 13 | 4 6 | 3 | 5 | 9 | 10 14',
        ),
    ),
    ('hillclimb', 'star:default', 'hdd:small-buffer'): (
        (
            'orderkey | linenumber | d1_key d2_key d3_key d4_key m1 m4 m9 | m2 | '
            'm3 | m5 | m6 | m7 | m8 | priority shipmode comment'
        ),
        '0x1.f06e73c79044cp+9', 850,
        (9, 8),
    ),
    ('autopart', 'star:default', 'hdd:small-buffer'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | d1_key d2_key d3_key d4_key m1 m4 | '
            'm5 m9 | m8 | priority shipmode comment'
        ),
        '0x1.df3a5a6aeb366p+9', 156,
        (6, 5),
    ),
    ('hyrise', 'star:default', 'hdd:small-buffer'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | '
            'd1_key d2_key d3_key d4_key m1 m4 m5 m8 m9 | '
            'priority shipmode comment'
        ),
        '0x1.c5e6037b0c71fp+9', 44,
        (
            '0 1 7 8 11 12 | 15 16 17 | 2 4 6 13 | 10 14 | 3 5 9',
            '0 1 7 8 11 12 | 15 16 17 | 2 3 4 5 6 9 10 13 14',
        ),
    ),
    ('hillclimb', 'star:default', 'mainmemory'): (
        (
            'orderkey | linenumber | d1_key | d2_key | d3_key | d4_key | m1 | m2 | '
            'm3 | m4 | m5 m9 | m6 | m7 | m8 | priority shipmode | comment'
        ),
        '0x1.22678c0053e2dp+3', 410,
        (3, 2),
    ),
    ('autopart', 'star:default', 'mainmemory'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | d1_key | d2_key | d3_key | d4_key | '
            'm1 | m4 | m5 m9 | m8 | priority shipmode comment'
        ),
        '0x1.6e011d3671ac1p+3', 46,
        (1, 0),
    ),
    ('hyrise', 'star:default', 'mainmemory'): (
        (
            'orderkey linenumber m2 m3 m6 m7 | d1_key | d2_key | d3_key | d4_key | '
            'm1 | m4 | m5 m9 | m8 | priority shipmode comment'
        ),
        '0x1.6e011d3671ac1p+3', 62,
        (
            '0 1 7 8 11 12 | 15 16 17 | 2 | 4 | 6 | 13 | 3 | 5 | 9 | 10 14',
            '0 1 7 8 11 12 | 15 16 17 | 2 | 4 | 6 | 13 | 3 | 5 | 9 | 10 14',
        ),
    ),
    ('hillclimb', 'telemetry:wide', 'hdd'): (
        (
            'ts device_id site | s1 | s2 | s3 | s4 s5 | s6 s7 | s8 | s9 | '
            's10 s11 s12 | s13 | s14 | s15 | s16 s17 s18 s19 s20 | s21 | s22 | '
            's23 | s24 s25 s26 | s27 | s28 | s29 | s30 | s31 | s32 | s33 s34 | '
            's35 | s36 s37 | s38 | s39 | s40'
        ),
        '0x1.aac75ab12032dp+7', 9591,
        (15, 14),
    ),
    ('autopart', 'telemetry:wide', 'hdd'): (
        (
            'ts device_id site | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | s3 | '
            's4 s5 | s6 s7 | s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s23 | '
            's24 s25 s26 | s27 | s32 | s33 s34 | s36 s37'
        ),
        '0x1.aac75ab12032dp+7', 197,
        (2, 1),
    ),
    ('hyrise', 'telemetry:wide', 'hdd'): (
        (
            'ts device_id site | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | s3 | '
            's4 s5 | s6 s7 | s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s23 | '
            's24 s25 s26 | s27 | s32 | s33 s34 | s36 s37'
        ),
        '0x1.aac75ab12032dp+7', 120,
        (
            (
                '0 1 2 | 25 | 26 27 28 | '
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 29 | 34 | 35 36 | 38 39 | 5 | 6 7 | 8 9 | 10'
            ),
            (
                '0 1 2 | 25 | 26 27 28 | '
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 29 | 34 | 35 36 | 38 39 | 5 | 6 7 | 8 9 | 10'
            ),
        ),
    ),
    ('hillclimb', 'telemetry:wide', 'hdd:small-buffer'): (
        (
            'ts device_id site s4 s23 s24 s25 s26 s27 | s1 | s2 | s3 | s5 | '
            's6 s7 s8 | s9 | s10 s11 s12 | s13 | s14 | s15 | s16 | s17 | s18 | '
            's19 | s20 | s21 | s22 | s28 | s29 | s30 | s31 | s32 | s33 | s34 | '
            's35 | s36 | s37 | s38 | s39 | s40'
        ),
        '0x1.5051e30e7a687p+11', 8750,
        (13, 12),
    ),
    ('autopart', 'telemetry:wide', 'hdd:small-buffer'): (
        (
            'ts device_id site s23 s24 s25 s26 s27 | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | '
            's3 s4 s5 s6 s7 s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s32 | '
            's33 s34 | s36 s37'
        ),
        '0x1.3bd0f95f0d029p+11', 505,
        (8, 7),
    ),
    ('hyrise', 'telemetry:wide', 'hdd:small-buffer'): (
        (
            'ts device_id site s23 s24 s25 s26 s27 | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | '
            's3 s4 s5 s6 s7 s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s32 | '
            's33 s34 | s36 s37'
        ),
        '0x1.3bd0f95f0d029p+11', 98,
        (
            (
                '0 1 2 25 26 27 28 | '
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 29 | 34 | 35 36 | 38 39 | 5 6 7 8 9 10'
            ),
            (
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 34 | 35 36 | 38 39 | 5 6 7 8 9 10 | '
                '0 1 2 25 26 27 28 29'
            ),
        ),
    ),
    ('hillclimb', 'telemetry:wide', 'mainmemory'): (
        (
            'ts device_id site | s1 | s2 | s3 | s4 s5 | s6 s7 | s8 | s9 | '
            's10 s11 s12 | s13 | s14 | s15 | s16 s17 s18 s19 s20 | s21 | s22 | '
            's23 | s24 | s25 s26 | s27 | s28 | s29 | s30 | s31 | s32 | s33 s34 | '
            's35 | s36 s37 | s38 | s39 | s40'
        ),
        '0x1.ad006c00da1a9p+4', 9185,
        (14, 13),
    ),
    ('autopart', 'telemetry:wide', 'mainmemory'): (
        (
            'ts device_id site | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | s3 | '
            's4 s5 | s6 s7 | s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s23 | s24 | '
            's25 s26 | s27 | s32 | s33 s34 | s36 s37'
        ),
        '0x1.ad006c00da1a9p+4', 106,
        (1, 0),
    ),
    ('hyrise', 'telemetry:wide', 'mainmemory'): (
        (
            'ts device_id site | '
            's1 s2 s9 s13 s14 s15 s21 s22 s28 s29 s30 s31 s35 s38 s39 s40 | s3 | '
            's4 s5 | s6 s7 | s8 | s10 s11 s12 | s16 s17 s18 s19 s20 | s23 | s24 | '
            's25 s26 | s27 | s32 | s33 s34 | s36 s37'
        ),
        '0x1.ad006c00da1a9p+4', 131,
        (
            (
                '0 1 2 | 25 | 26 | 27 28 | '
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 29 | 34 | 35 36 | 38 39 | 5 | 6 7 | 8 9 | 10'
            ),
            (
                '0 1 2 | 25 | 26 | 27 28 | '
                '3 4 11 15 16 17 23 24 30 31 32 33 37 40 41 42 | 12 13 14 | '
                '18 19 20 21 22 | 29 | 34 | 35 36 | 38 39 | 5 | 6 7 | 8 9 | 10'
            ),
        ),
    ),
}

FULL = builtin_grid("full")
ALGORITHMS = ("hillclimb", "autopart", "hyrise")


def _index_groups(text):
    return [[int(index) for index in group.split()] for group in text.split(" | ")]


def test_golden_covers_the_full_grid():
    assert sorted(GOLDEN) == sorted(
        product(ALGORITHMS, FULL.workloads, FULL.cost_models)
    )


@pytest.mark.parametrize("model_id", FULL.cost_models)
@pytest.mark.parametrize("workload_id", FULL.workloads)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_layout_cost_and_metadata_are_unchanged(name, workload_id, model_id):
    layout, cost, evaluations, details = GOLDEN[(name, workload_id, model_id)]
    result = get_algorithm(name).run(
        resolve_workload(workload_id), resolve_cost_model(model_id)
    )
    names = result.partitioning.as_names()
    assert " | ".join(" ".join(group) for group in names) == layout
    assert result.estimated_cost.hex() == cost
    assert result.cost_evaluations == evaluations
    metadata = result.metadata
    assert metadata["candidate_evaluations"] == evaluations
    if name == "hyrise":
        after_subgraphs, final = details
        assert metadata["groups_after_subgraph_merge"] == _index_groups(after_subgraphs)
        assert metadata["final_groups"] == _index_groups(final)
    else:
        assert (metadata["iterations"], metadata["merges"]) == details
        assert metadata["final_cost"].hex() == cost
