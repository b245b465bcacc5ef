"""Analysis tools: fork model, convergence checks, overheads, tree view, Table I."""

from repro.analysis.comparison import (
    LITERATURE_ROWS,
    AlgorithmRow,
    Grade,
    format_table,
    grade_equality,
    grade_scalability,
    grade_unpredictability,
)
from repro.analysis.confirmation import (
    ConfirmationPolicy,
    latency_table,
    required_confirmations,
)
from repro.analysis.convergence import SettlementTracker, lag_growth_slope
from repro.analysis.forkmodel import (
    expected_out_degree_trend,
    fork_rate_model,
    propagation_delay_estimate,
)
from repro.analysis.stats import (
    CommunicationOverhead,
    StorageOverhead,
    binomial_mle,
    mle_bias_estimate,
    reduction_percent,
)
from repro.analysis.treeview import chain_summary, find_forks, head_lineage, render_tree

__all__ = [
    "AlgorithmRow",
    "CommunicationOverhead",
    "ConfirmationPolicy",
    "latency_table",
    "required_confirmations",
    "Grade",
    "LITERATURE_ROWS",
    "SettlementTracker",
    "StorageOverhead",
    "binomial_mle",
    "chain_summary",
    "expected_out_degree_trend",
    "find_forks",
    "fork_rate_model",
    "format_table",
    "grade_equality",
    "grade_scalability",
    "grade_unpredictability",
    "head_lineage",
    "lag_growth_slope",
    "mle_bias_estimate",
    "propagation_delay_estimate",
    "reduction_percent",
    "render_tree",
]
