"""Spectral node centralities of large networks from sampled adjacency data."""

__version__ = "0.1.0"

from .graph import GraphParseError, SparseGraph, parse_edge_list, transpose
from .matfun import (
    EvaluationError,
    MatfunResult,
    ScalarFunction,
    evaluate_masked_function,
    exp_minus_one,
    resolvent_minus_one,
)
from .oracle import dense_left_perron, expm_rowsum, katz_rowsum
from .perron import (
    PerronConfig,
    PerronResult,
    RankDeficientProductError,
    left_perron,
    symmetric_perron,
)
from .ranking import Ranking, exact_matches, rank_nodes, topk_overlap
from .sampling import SampleSet, sample_columns, sample_rows

__all__ = [
    "__version__",
    "EvaluationError",
    "GraphParseError",
    "MatfunResult",
    "PerronConfig",
    "PerronResult",
    "RankDeficientProductError",
    "Ranking",
    "SampleSet",
    "ScalarFunction",
    "SparseGraph",
    "dense_left_perron",
    "evaluate_masked_function",
    "exact_matches",
    "exp_minus_one",
    "expm_rowsum",
    "katz_rowsum",
    "left_perron",
    "parse_edge_list",
    "rank_nodes",
    "resolvent_minus_one",
    "sample_columns",
    "sample_rows",
    "symmetric_perron",
    "topk_overlap",
    "transpose",
]
