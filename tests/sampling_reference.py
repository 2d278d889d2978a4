"""The guided column sampler as a scalar loop, and the law of its next pick.

``sampling.sample_columns`` keeps the rows of the chosen columns' entries
in a preallocated intp buffer, fills it by slice copies, compacts it with a
boolean mask and draws its uniforms in chunks.  ``guided_reference`` keeps
the same entries in a Python list, drops spent ones by the same rule and
makes one scalar call per draw, so the tests can check that both give the
same sample for the same seed.  ``next_pick_law`` is the chance of each
node as the next pick, which the law tests compare with sampled
frequencies.
"""

from __future__ import annotations

import numpy as np


def guided_reference(g, ell: int, seed: int) -> tuple[list[int], int, int]:
    """The guided sample of ``ell`` columns of g: (indices, fallback_draws,
    compactions).

    Each draw is one ``random()`` on ``default_rng(seed)`` times the number
    of entries of the chosen columns, kept in the order chosen; a draw whose
    row is chosen or a zero column is redrawn.  Before a pick by draws, when
    fewer than half the entries have an eligible row, the others are dropped
    in order, which ``compactions`` counts.  The first pick, and each pick
    when no entry has an eligible row, is one ``integers`` call on
    ``default_rng([seed, 1])`` into the eligible columns, a list from which
    a chosen column is removed by moving the last one into its place.
    """
    uniforms = np.random.default_rng(seed)
    picks = np.random.default_rng([seed, 1])
    pool = g.nonzero_columns().tolist()
    where = {j: position for position, j in enumerate(pool)}
    entries: list[int] = []
    chosen: list[int] = []
    fallback = compactions = 0
    j = pool[picks.integers(len(pool))]
    while True:
        chosen.append(j)
        last = pool.pop()
        if last != j:
            pool[where[j]] = last
            where[last] = where[j]
        del where[j]
        entries += g.column(j).tolist()
        if len(chosen) == ell:
            return chosen, fallback, compactions
        if not any(i in where for i in entries):
            j = pool[picks.integers(len(pool))]
            fallback += 1
        else:
            if 2 * sum(i in where for i in entries) < len(entries):
                entries = [i for i in entries if i in where]
                compactions += 1
            while True:
                j = entries[int(uniforms.random() * len(entries))]
                if j in where:
                    break


def next_pick_law(g, chosen) -> np.ndarray:
    """The chance of each node as the guided pick after ``chosen``.

    A nonzero column not in ``chosen`` gets its edges into ``chosen`` over
    the total of those counts; when that total is zero, each such column
    gets the same chance.  Every other node gets 0.
    """
    eligible = g.col_degrees > 0
    eligible[list(chosen)] = False
    weights = sum(np.bincount(g.column(j), minlength=g.n) for j in chosen) * eligible
    if weights.sum() == 0:
        weights = eligible.astype(np.int64)
    return weights / weights.sum()
