"""Seeded inputs of the four workloads, and how many of them a run uses.

Everything the program receives is made here from ``--seed``: the same seed
gives the same grid spec, job list, warm-up pool and operations.  Only the
values change with the seed (scale factors, tables, algorithm and cost model
subsets, data seeds, which warmed request a read targets).  The shape of
the load does not: the mix, the order of operation kinds and the arrival
times are the same for every seed, so two seeds ask the program for the
same kinds and amounts of work at the same moments, and which jobs overlap
does not change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grid.cache import canonical_json
from repro.grid.spec import GridSpec, builtin_grid

#: Tables (with their TPC-H/SSB scheme) small enough that one algorithm run
#: takes milliseconds; ``tpch:lineitem`` is drawn separately because its
#: Trojan run alone takes about a second.
LIGHT_TABLES = (
    "tpch:orders",
    "tpch:partsupp",
    "tpch:part",
    "tpch:customer",
    "tpch:supplier",
    "ssb:lineorder",
    "ssb:customer",
    "ssb:part",
    "ssb:supplier",
)
HEAVY_TABLE = "tpch:lineitem"

ALGORITHMS = ("autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan")
COST_MODELS = ("hdd", "hdd:small-buffer", "mainmemory")
#: Cost models the measured backend can execute (it replays disk scans).
DISK_COST_MODELS = ("hdd", "hdd:small-buffer")

#: Rows of synthetic data per validate job, per backend.
MEASURED_ROWS = 20_000
SQLITE_ROWS = 2_000

#: The one table SQLite validations run on.  Their latency sets the
#: workload's p90, so drawing it from tables of different widths would move
#: the p90 with the seed.
SQLITE_TABLE = "tpch:partsupp"

#: One block of ``service-fresh`` jobs: (kind tag, count).  A run submits
#: whole blocks, so every run has exactly this mix.  The counts put each
#: reported percentile inside one kind of job rather than on the edge
#: between two, where it would jump with the seed: light recommends (done
#: by the first poll) are the fastest 58%, so the median is one of them;
#: lineitem recommends are the slowest 5% and SQLite validations the next
#: 12.5%, so the p90 is a SQLite validation.
FRESH_BLOCK = (
    ("recommend", 23),
    ("recommend-lineitem", 2),
    ("compare", 6),
    ("validate-measured", 4),
    ("validate-sqlite", 5),
)

#: ``service-hot`` operation mix per block of 20 operations (300/90/60/150
#: of 600); the schedule shuffles within blocks, so every block has this mix.
HOT_MIX = (("resubmit", 10), ("fetch", 3), ("list", 2), ("write", 5))
HOT_RATE = 12.0  # operations per second, open loop
ZIPF_S = 1.1


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; derived from ``--seconds``."""

    grid_shape: str  # builtin grid whose shape grid workloads take
    cold_runs: int
    resume_runs: int
    fresh_blocks: int
    hot_ops: int
    hot_pool: int  # recommend + compare requests in the warm-up pool
    setup_launches: int
    sample_reexec: int
    quick: bool = False

    def replayed(self, count: int) -> int:
        """Ops the traced pass replays, twice (untraced, then traced): the
        first third, or all of them at smoke-test size so every layer shows."""
        return count if self.quick else max(1, math.ceil(count / 3))


def sizes_for(seconds: int, quick: bool = False) -> Sizes:
    """Run sizes: the full shape scaled to ``seconds`` of measured work."""
    if quick:
        return Sizes(
            grid_shape="small", cold_runs=2, resume_runs=20, fresh_blocks=1,
            hot_ops=20, hot_pool=6, setup_launches=2, sample_reexec=2, quick=True,
        )
    return Sizes(
        grid_shape="full",
        cold_runs=max(2, round(seconds / 3.3)),
        resume_runs=max(20, round(seconds * 20)),
        fresh_blocks=max(1, round(seconds / 7.0)),
        hot_ops=20 * max(1, round(seconds * HOT_RATE / 20)),
        hot_pool=30,
        setup_launches=5,
        sample_reexec=8,
    )


def _table_id(rng: random.Random, table: str) -> str:
    """``table`` at a scale factor drawn in [0.5, 10]."""
    return f"{table}@{rng.uniform(0.5, 10.0):.2f}"


# -- grid workloads ------------------------------------------------------------


def grid_spec(seed: int, shape: str = "full") -> GridSpec:
    """The ``shape`` builtin grid with every TPC-H/SSB scale factor drawn
    from the seed in [0.5, 10]."""
    base = builtin_grid(shape)
    rng = random.Random(f"grid-{seed}")
    workloads = [
        _table_id(rng, wid.split("@", 1)[0]) if wid.startswith(("tpch:", "ssb:")) else wid
        for wid in base.workloads
    ]
    return GridSpec(
        name=f"perf-{shape}-s{seed}",
        algorithms=base.algorithms,
        workloads=workloads,
        cost_models=base.cost_models,
    )


# -- service workloads ---------------------------------------------------------


def _fresh_request(rng: random.Random, tag: str) -> Tuple[str, Dict[str, object]]:
    if tag == "recommend":
        return "recommend", {
            "workload": _table_id(rng, rng.choice(LIGHT_TABLES)),
            "cost_model": rng.choice(COST_MODELS),
        }
    if tag == "recommend-lineitem":
        return "recommend", {
            "workload": _table_id(rng, HEAVY_TABLE),
            "cost_model": rng.choice(COST_MODELS),
        }
    if tag == "compare":
        return "compare", {
            "algorithms": sorted(rng.sample(ALGORITHMS, 3)),
            "workloads": [_table_id(rng, t) for t in rng.sample(LIGHT_TABLES, 2)],
            "cost_models": sorted(rng.sample(COST_MODELS, 2)),
            "workers": 1,
        }
    backend = "measured" if tag == "validate-measured" else "sqlite"
    table = rng.choice(LIGHT_TABLES) if backend == "measured" else SQLITE_TABLE
    return "validate", {
        "workload": _table_id(rng, table),
        "cost_model": rng.choice(DISK_COST_MODELS if backend == "measured" else COST_MODELS),
        "backend": backend,
        "rows": MEASURED_ROWS if backend == "measured" else SQLITE_ROWS,
        "data_seed": rng.randrange(1_000_000),
    }


def fresh_jobs(seed: int, sizes: Sizes) -> List[Tuple[str, Dict[str, object]]]:
    """``service-fresh`` requests: whole blocks, all distinct, their kinds in
    one fixed shuffled order."""
    rng = random.Random(f"fresh-{seed}")
    order = random.Random("fresh-order")
    seen = set()
    jobs: List[Tuple[str, Dict[str, object]]] = []
    for _ in range(sizes.fresh_blocks):
        # A quick block is a quarter of a full one, without lineitem jobs.
        tags = [
            tag
            for tag, count in FRESH_BLOCK
            if not (sizes.quick and tag == "recommend-lineitem")
            for _ in range(max(1, count // 4) if sizes.quick else count)
        ]
        heavy = [tag for tag in tags if tag == "recommend-lineitem"]
        tags = [tag for tag in tags if tag != "recommend-lineitem"]
        order.shuffle(tags)
        # Spread the lineitem jobs evenly through the block: two of them in
        # flight at once double the service's peak memory.
        step = (len(tags) + len(heavy)) // max(1, len(heavy))
        for position, tag in enumerate(heavy):
            tags.insert(position * step, tag)
        for tag in tags:
            while True:
                kind, body = _fresh_request(rng, tag)
                key = kind + canonical_json(body)
                if key not in seen:
                    seen.add(key)
                    jobs.append((kind, body))
                    break
    return jobs


def hot_pool(seed: int, sizes: Sizes) -> List[Tuple[str, Dict[str, object]]]:
    """``service-hot`` warm-up pool: half recommends, half 4x3x2 compares."""
    rng = random.Random(f"hot-pool-{seed}")
    pool: List[Tuple[str, Dict[str, object]]] = []
    seen = set()
    while len(pool) < sizes.hot_pool:
        if len(pool) % 2 == 0:
            kind, body = "recommend", {
                "workload": _table_id(rng, rng.choice(LIGHT_TABLES)),
                "cost_model": rng.choice(COST_MODELS),
            }
        else:
            kind, body = "compare", {
                "algorithms": sorted(rng.sample(ALGORITHMS, 4)),
                "workloads": [_table_id(rng, t) for t in rng.sample(LIGHT_TABLES, 3)],
                "cost_models": sorted(rng.sample(COST_MODELS, 2)),
                "workers": 1,
            }
        key = kind + canonical_json(body)
        if key not in seen:
            seen.add(key)
            pool.append((kind, body))
    return pool


@dataclass(frozen=True)
class HotOp:
    """One scheduled ``service-hot`` operation."""

    due: float  # seconds after the loop starts
    kind: str  # resubmit | fetch | list | write
    pool_index: Optional[int]  # the warmed request it reads or narrows
    body: Optional[Dict[str, object]] = None  # the new compare, for writes


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, count + 1)]


def _axis_subset(rng: random.Random, axis: Sequence[str]) -> List[str]:
    return sorted(rng.sample(list(axis), rng.randint(1, len(axis))))


def hot_schedule(
    seed: int, sizes: Sizes, pool: Sequence[Tuple[str, Dict[str, object]]]
) -> List[HotOp]:
    """Open-loop arrivals at ``HOT_RATE`` in blocks of ``HOT_MIX``, timed the
    same for every seed; the seed picks what each op reads or writes."""
    rng = random.Random(f"hot-ops-{seed}")
    arrivals = random.Random("hot-arrivals")
    block = [kind for kind, count in HOT_MIX for _ in range(count)]
    kinds: List[str] = []
    gaps: List[float] = []
    for _ in range(sizes.hot_ops // len(block)):
        arrivals.shuffle(block)
        kinds += block
        # Poisson gaps, rescaled so each block spans len(block) / HOT_RATE s.
        draws = [arrivals.expovariate(HOT_RATE) for _ in block]
        gaps += [gap * (len(block) / HOT_RATE) / sum(draws) for gap in draws]
    # Popularity follows pool order, which alternates recommends and
    # compares, so every seed reads the same mix of small and large results.
    weights = _zipf_weights(len(pool))
    compares = [index for index, (kind, _) in enumerate(pool) if kind == "compare"]
    written = set()
    ops: List[HotOp] = []
    due = 0.0
    for kind, gap in zip(kinds, gaps):
        due += gap
        if kind in ("resubmit", "fetch"):
            index = rng.choices(range(len(pool)), weights)[0]
            ops.append(HotOp(due, kind, index))
        elif kind == "list":
            ops.append(HotOp(due, kind, None))
        else:
            while True:
                index = rng.choice(compares)
                base = pool[index][1]
                body = {
                    "algorithms": _axis_subset(rng, base["algorithms"]),
                    "workloads": _axis_subset(rng, base["workloads"]),
                    "cost_models": _axis_subset(rng, base["cost_models"]),
                    "workers": 1,
                }
                key = canonical_json(body)
                narrower = any(
                    len(body[axis]) < len(base[axis])
                    for axis in ("algorithms", "workloads", "cost_models")
                )
                if key not in written and narrower:
                    written.add(key)
                    break
            ops.append(HotOp(due, kind, index, body))
    return ops
