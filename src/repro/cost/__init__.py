"""Cost models.

The paper evaluates every algorithm with an analytical I/O cost model
(Section 4) rather than by executing queries in a real DBMS, because no freely
available system can read vertically partitioned data without tuple
reconstruction joins polluting the measurement.

* :mod:`repro.cost.disk` — :class:`DiskCharacteristics`, the hardware
  parameters (block size, buffer size, read/write bandwidth, seek time).
* :mod:`repro.cost.hdd` — :class:`HDDCostModel`, the paper's buffered seek +
  scan model for disk-based systems.
* :mod:`repro.cost.mainmemory` — :class:`MainMemoryCostModel`, a HYRISE-style
  cache-miss model used for Table 6.
* :mod:`repro.cost.creation` — layout transformation (creation) time model
  used by the pay-off metric.
* :mod:`repro.cost.evaluator` — :class:`CostEvaluator`, the memoized bitmask
  costing kernel the partitioning algorithms evaluate candidate layouts with.
"""

from repro.cost.base import CostModel
from repro.cost.disk import (
    DEFAULT_DISK,
    POSTGRES_LIKE_DISK,
    DiskCharacteristics,
)
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCharacteristics, MainMemoryCostModel
from repro.cost.creation import estimate_creation_time
from repro.cost.evaluator import (
    CostEvaluator,
    cache_sharing_enabled,
    clear_shared_caches,
    enable_cache_sharing,
)

__all__ = [
    "CostModel",
    "CostEvaluator",
    "enable_cache_sharing",
    "cache_sharing_enabled",
    "clear_shared_caches",
    "DiskCharacteristics",
    "DEFAULT_DISK",
    "POSTGRES_LIKE_DISK",
    "HDDCostModel",
    "MainMemoryCostModel",
    "MainMemoryCharacteristics",
    "estimate_creation_time",
]
