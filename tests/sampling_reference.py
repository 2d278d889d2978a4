"""The single-draw law of the guided column sampler.

``sampling.sample_columns`` draws each guided column by a blocked O(sqrt(n))
search.  No pipeline route runs the O(n) draw below; the tests import it
from here to check that the blocked search returns the same index for the
same generator state, and that the law itself is the categorical one.
"""

from __future__ import annotations

import numpy as np


def draw_categorical(weights: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn with probability weights[i] / sum(weights).

    Inverse CDF over the running prefix sum, O(n) per draw and reproducible
    for a given generator state.  Zero-weight indices are never returned.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    cum = np.cumsum(w)
    total = cum[-1] if cum.size else 0.0
    if total <= 0:
        raise ValueError("weights sum to zero")
    u = rng.random() * total
    return int(np.searchsorted(cum, u, side="right"))
