"""Spectral node centralities of large networks from sampled adjacency data."""

__version__ = "0.1.0"

from .graph import (
    GraphParseError,
    SparseGraph,
    parse_edge_list,
    remove_self_loops,
    transpose,
    write_edge_list,
)
from .matfun import (
    EvaluationError,
    MatfunResult,
    ScalarFunction,
    arrow_core_evaluation,
    direct_core_evaluation,
    evaluate_masked_function,
    exp_minus_one,
    resolvent_minus_one,
    transpose_measures,
)
from .oracle import dense_left_perron, dense_matfun, expm_rowsum, katz_rowsum
from .perron import (
    PerronConfig,
    PerronResult,
    RankDeficientProductError,
    left_perron,
    symmetric_perron,
)
from .ranking import (
    CentralityVector,
    Ranking,
    RankingReport,
    exact_matches,
    rank_nodes,
    topk_overlap,
)
from .sampling import SampleSet, draw_categorical, sample_columns, sample_rows

__all__ = [
    "__version__",
    "CentralityVector",
    "EvaluationError",
    "GraphParseError",
    "MatfunResult",
    "PerronConfig",
    "PerronResult",
    "RankDeficientProductError",
    "Ranking",
    "RankingReport",
    "SampleSet",
    "ScalarFunction",
    "SparseGraph",
    "arrow_core_evaluation",
    "dense_left_perron",
    "dense_matfun",
    "direct_core_evaluation",
    "draw_categorical",
    "evaluate_masked_function",
    "exact_matches",
    "exp_minus_one",
    "expm_rowsum",
    "katz_rowsum",
    "left_perron",
    "parse_edge_list",
    "rank_nodes",
    "remove_self_loops",
    "resolvent_minus_one",
    "sample_columns",
    "sample_rows",
    "symmetric_perron",
    "topk_overlap",
    "transpose",
    "transpose_measures",
    "write_edge_list",
]
