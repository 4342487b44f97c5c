"""Query processing for multiplots: merging and progressive presentation.

MUVE executes many similar queries per voice input.  Section 8.1 merges
them (equality predicates on one column become an ``IN`` condition plus
``GROUP BY``; several aggregates over the same filter share one scan) when
the optimizer's cost model says the merged plan is cheaper.  Section 8.2
reduces *perceived* latency instead: incremental plotting emits the
multiplot plot by plot, approximate processing shows scaled sample results
first and refines in the background.
"""

from repro.execution.batch import (
    batch_stats,
    request_context,
    reset_batch_stats,
)
from repro.execution.engine import MuveExecutor, VisualizationUpdate
from repro.execution.parallel import warm_database
from repro.execution.merging import (
    ExecutionPlan,
    MergedGroup,
    plan_execution,
)
from repro.execution.progressive import (
    ApproximateProcessing,
    DefaultProcessing,
    IncrementalPlotting,
    ProcessingStrategy,
)

__all__ = [
    "ApproximateProcessing",
    "DefaultProcessing",
    "ExecutionPlan",
    "IncrementalPlotting",
    "MergedGroup",
    "MuveExecutor",
    "ProcessingStrategy",
    "VisualizationUpdate",
    "batch_stats",
    "plan_execution",
    "request_context",
    "reset_batch_stats",
    "warm_database",
]
