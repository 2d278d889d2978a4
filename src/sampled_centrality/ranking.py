"""Score vectors to rankings, and top-k agreement between rankings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

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
    order = np.lexsort((np.arange(n), -arr))
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


@dataclass(frozen=True)
class RankingReport:
    """Reference ranking against labelled candidates with top-k statistics."""

    reference: Ranking
    candidates: list[tuple[str, Ranking]]
    k: int = 20

    def overlap_at_k(self) -> dict[str, int]:
        return {label: topk_overlap(self.reference, r, self.k) for label, r in self.candidates}

    def exact_at_k(self) -> dict[str, int]:
        return {label: exact_matches(self.reference, r, self.k) for label, r in self.candidates}

    def _top_ids(self, r: Ranking, labels: np.ndarray | None) -> list[int]:
        """The first k nodes of ``r``, as raw input ids when ``labels`` is given."""
        nodes = r.top(self.k)
        if labels is not None:
            nodes = labels[nodes]
        return [int(i) for i in nodes]

    def to_record(self, labels: np.ndarray | None = None) -> dict:
        overlaps = self.overlap_at_k()
        exacts = self.exact_at_k()
        return {
            "k": int(self.k),
            "tie_break": "ascending node id",
            "reference": {
                "top": self._top_ids(self.reference, labels),
                "scores": [float(s) for s in self.reference.scores],
            },
            "candidates": [
                {
                    "label": label,
                    "top": self._top_ids(r, labels),
                    "scores": [float(s) for s in r.scores],
                    "overlap_at_k": overlaps[label],
                    "exact_at_k": exacts[label],
                }
                for label, r in self.candidates
            ],
        }

    def write_csv(self, stream: TextIO, labels: np.ndarray | None = None) -> None:
        """Figure-style table: one column per configuration, one row per rank."""
        columns = [("reference", self._top_ids(self.reference, labels))]
        columns += [(label, self._top_ids(r, labels)) for label, r in self.candidates]
        stream.write("rank," + ",".join(label for label, _ in columns) + "\n")
        for pos in range(self.k):
            row = [str(col[pos]) for _, col in columns]
            stream.write(f"{pos + 1}," + ",".join(row) + "\n")
        overlaps = self.overlap_at_k()
        exacts = self.exact_at_k()
        stream.write(
            "overlap@k,," + ",".join(str(overlaps[label]) for label, _ in self.candidates) + "\n"
        )
        stream.write(
            "exact@k,," + ",".join(str(exacts[label]) for label, _ in self.candidates) + "\n"
        )
