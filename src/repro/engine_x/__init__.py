"""Real-engine execution backend: layouts materialised on embedded SQLite.

The third rung of the validation ladder (``docs/ENGINE_X.md``): the
*estimated* backend predicts runtimes with closed formulas, the *measured*
backend (:mod:`repro.exec`) replays them on our own simulator, and this
package runs them on an engine we did not implement — one SQLite table per
column group, rowid equi-joins for cross-group reconstruction, warm repeated
executions with per-query trimmed-mean wall clock.
"""

from repro.engine_x.differential import (
    DifferentialCase,
    DifferentialResult,
    QueryComparison,
    random_case,
    run_differential,
)
from repro.engine_x.executor import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_REPEATS,
    PAGE_SIZES,
    TMPDIR_ENV_VAR,
    EngineRun,
    EngineWorkloadRun,
    SQLiteExecutor,
    resolve_database_dir,
    trimmed_mean,
)
from repro.engine_x.sql import (
    RID_COLUMN,
    CompiledQuery,
    SqlCompilationError,
    compile_query,
    compile_workload,
    create_layout_sql,
    create_table_sql,
    group_table_name,
    insert_sql,
    layout_from_connection,
)

__all__ = [
    "CompiledQuery",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_REPEATS",
    "DifferentialCase",
    "DifferentialResult",
    "EngineRun",
    "EngineWorkloadRun",
    "PAGE_SIZES",
    "QueryComparison",
    "RID_COLUMN",
    "SQLiteExecutor",
    "SqlCompilationError",
    "TMPDIR_ENV_VAR",
    "compile_query",
    "compile_workload",
    "create_layout_sql",
    "create_table_sql",
    "group_table_name",
    "insert_sql",
    "layout_from_connection",
    "random_case",
    "resolve_database_dir",
    "run_differential",
    "trimmed_mean",
]
