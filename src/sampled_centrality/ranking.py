"""Score vectors to rankings, and top-k agreement between rankings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Ranking:
    """Full node order by descending score, ties broken by ascending id.

    Only bitwise-equal scores tie: scores equal in exact arithmetic but one
    ulp apart are ordered by value, whatever their ids.  ``k`` is the report
    depth; the stored order covers every node so any depth up to n can be
    compared.
    """

    ordered_nodes: np.ndarray
    scores: np.ndarray
    k: int

    def top(self, k: int | None = None) -> np.ndarray:
        return self.ordered_nodes[: self.k if k is None else k]

    def __len__(self) -> int:
        return int(self.ordered_nodes.size)


def rank_nodes(scores: np.ndarray, k: int = 20) -> Ranking:
    """Deterministic descending sort with ascending-id tie-break among
    bitwise-equal scores; scores one ulp apart are ordered by value.

    Refuses inf and nan scores, which overflowed estimates and references
    would otherwise rank silently.
    """
    arr = np.asarray(scores, dtype=np.float64)
    n = arr.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if not np.isfinite(arr).all():
        raise ValueError(f"{np.count_nonzero(~np.isfinite(arr))} of {n} scores are not finite")
    order = np.argsort(-arr, kind="stable")
    return Ranking(ordered_nodes=order, scores=arr[order], k=k)


def topk_overlap(a: Ranking, b: Ranking, k: int) -> int:
    """Size of the intersection of the two top-k node sets."""
    if k > len(a) or k > len(b):
        raise ValueError("k exceeds a ranking depth")
    return int(np.intersect1d(a.ordered_nodes[:k], b.ordered_nodes[:k]).size)


def exact_matches(a: Ranking, b: Ranking, k: int) -> int:
    """Number of positions p <= k ranked identically in both orders."""
    if k > len(a) or k > len(b):
        raise ValueError("k exceeds a ranking depth")
    return int(np.count_nonzero(a.ordered_nodes[:k] == b.ordered_nodes[:k]))
