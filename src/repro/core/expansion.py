"""Parameterised node expansion (Definitions 2.2 and 2.3 of the paper).

A graph ``G = ([n], E)`` is an ``(h, k)``-expander if every node set
``I`` with ``|I| <= h`` satisfies ``|N(I)| >= k |I|``, where ``N(I)`` is
the out-neighborhood of ``I``.

Computing the *worst* expansion ``min_{|I| = s} |N(I)|`` exactly is
exponential in ``s`` (it is a vertex-isoperimetry problem), so this
module offers three levels:

1. :func:`worst_expansion_exact` / :func:`is_expander_exact` — exhaustive
   subset enumeration, for graphs small enough to certify in tests.
2. :func:`estimate_worst_expansion` — randomized lower-bound search:
   random subsets, BFS-ball subsets (the extremal sets in geometric
   graphs are balls), and greedy local descent.  This gives an *upper
   bound* on the worst expansion — i.e. a sound way to *refute*
   over-optimistic expansion claims and to trace the constants
   ``alpha, beta, c`` of Theorems 3.2 and 4.1.  The descent is
   incremental: it holds every node's member-neighbour count
   (:meth:`~repro.dynamics.base.GraphSnapshot.neighbor_counts`), built
   once per descent, and a trial swap moves those counts along two
   ``neighbors_of`` lists instead of re-querying ``N(I)``.
3. :func:`trajectory_expansion` — the expansion of the sets actually
   visited by a flooding run, which is the quantity Lemma 2.4 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from repro.dynamics.base import GraphSnapshot
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive_int

__all__ = [
    "neighborhood_size",
    "expansion_of_set",
    "worst_expansion_exact",
    "is_expander_exact",
    "estimate_worst_expansion",
    "ExpansionEstimate",
    "expansion_profile",
    "trajectory_expansion",
]

#: Refuse exhaustive enumeration beyond this many subsets.
_EXACT_SUBSET_BUDGET = 2_000_000


def neighborhood_size(snapshot: GraphSnapshot, members: np.ndarray) -> int:
    """``|N(I)|`` for the node set given by the boolean mask *members*."""
    return int(snapshot.neighborhood_mask(members).sum())


def expansion_of_set(snapshot: GraphSnapshot, members: np.ndarray) -> float:
    """``|N(I)| / |I|`` for a non-empty node set *members*."""
    members = np.asarray(members, dtype=bool)
    size = int(members.sum())
    require(size > 0, "the set must be non-empty")
    return neighborhood_size(snapshot, members) / size


def _mask_from_nodes(nodes: Sequence[int], n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(nodes)] = True
    return mask


def worst_expansion_exact(snapshot: GraphSnapshot, size: int) -> tuple[float, np.ndarray]:
    """Exact ``min_{|I| = size} |N(I)|`` by exhaustive enumeration.

    Returns ``(min_neighborhood_size, argmin_mask)``.

    Raises
    ------
    ValueError
        If the number of subsets ``C(n, size)`` exceeds the enumeration
        budget (about 2e6) — use :func:`estimate_worst_expansion`.
    """
    n = snapshot.num_nodes
    size = require_positive_int(size, "size")
    require(size <= n, "size must be <= n")
    count = comb(n, size)
    if count > _EXACT_SUBSET_BUDGET:
        raise ValueError(
            f"C({n}, {size}) = {count} subsets exceeds the exact-enumeration "
            f"budget ({_EXACT_SUBSET_BUDGET}); use estimate_worst_expansion"
        )
    best = np.inf
    best_mask = _mask_from_nodes(range(size), n)
    for nodes in combinations(range(n), size):
        mask = _mask_from_nodes(nodes, n)
        value = neighborhood_size(snapshot, mask)
        if value < best:
            best = value
            best_mask = mask
            if best == 0:
                break
    return float(best), best_mask


def is_expander_exact(snapshot: GraphSnapshot, h: int, k: float) -> bool:
    """Exact check of Definition 2.2: is the graph an ``(h, k)``-expander?

    Enumerates all sets of size ``1 .. min(h, n)``; only feasible for
    small graphs (used by unit tests to certify the estimators).
    """
    n = snapshot.num_nodes
    h = require_positive_int(h, "h")
    for size in range(1, min(h, n) + 1):
        worst, _ = worst_expansion_exact(snapshot, size)
        if worst < k * size:
            return False
    return True


@dataclass(frozen=True)
class ExpansionEstimate:
    """Result of a randomized worst-expansion search at one set size.

    Attributes
    ----------
    size:
        The set size ``|I|`` probed.
    neighborhood_size:
        The smallest ``|N(I)|`` found (an upper bound on the true min).
    expansion:
        ``neighborhood_size / size`` — an upper bound on the worst
        expansion ratio at this size.
    witness:
        Boolean mask of the minimising set found.
    """

    size: int
    neighborhood_size: float
    expansion: float
    witness: np.ndarray

    def certifies_not_expander(self, h: int, k: float) -> bool:
        """True if the witness refutes the ``(h, k)``-expander property."""
        return self.size <= h and self.neighborhood_size < k * self.size


def _bfs_ball(snapshot: GraphSnapshot, center: int, size: int) -> np.ndarray:
    """Greedy BFS ball of exactly *size* nodes around *center* (mask).

    If the component of *center* is smaller than *size* the ball is
    padded with arbitrary outside nodes (which only makes it a weaker,
    still valid, candidate).
    """
    n = snapshot.num_nodes
    mask = np.zeros(n, dtype=bool)
    mask[center] = True
    filled = 1
    while filled < size:
        frontier = snapshot.neighborhood_mask(mask)
        candidates = np.flatnonzero(frontier)
        if candidates.size == 0:
            outside = np.flatnonzero(~mask)
            take = outside[: size - filled]
            mask[take] = True
            break
        take = candidates[: size - filled]
        mask[take] = True
        filled = int(mask.sum())
    return mask


#: Cap on swap candidates per greedy sweep; each candidate costs two
#: ``neighbors_of`` calls plus ``O(n)`` mask work, so unbounded sweeps
#: would be quadratic in ``|I|``.
_GREEDY_CANDIDATES = 24


def _greedy_descend(snapshot: GraphSnapshot, mask: np.ndarray, *,
                    rng: np.random.Generator,
                    sweeps: int = 2) -> tuple[np.ndarray, int]:
    """Local search: swap members/non-members to shrink ``|N(I)|``.

    Works from the member-neighbour counts ``c[x] = |{u in I : {u, x} in
    E}|``, so that ``N(I) = {x not in I : c[x] > 0}``: a trial swap
    ``u -> v`` moves the counts along ``neighbors_of(u)`` and
    ``neighbors_of(v)`` and is undone the same way on rejection.
    Returns the descended mask and its ``|N(I)|``.
    """
    mask = mask.copy()
    counts = snapshot.neighbor_counts(mask)
    frontier = (counts > 0) & ~mask
    current = int(np.count_nonzero(frontier))
    for _ in range(sweeps):
        improved = False
        members = rng.permutation(np.flatnonzero(mask))[:_GREEDY_CANDIDATES]
        for u in members:
            boundary = np.flatnonzero(frontier)
            if boundary.size == 0:
                return mask, current
            v = int(boundary[rng.integers(boundary.size)])
            left, joined = snapshot.neighbors_of(u), snapshot.neighbors_of(v)
            mask[u] = False
            mask[v] = True
            counts[left] -= 1
            counts[joined] += 1
            trial = (counts > 0) & ~mask
            cand = int(np.count_nonzero(trial))
            if cand < current:
                current = cand
                frontier = trial
                improved = True
            else:
                mask[v] = False
                mask[u] = True
                counts[joined] -= 1
                counts[left] += 1
        if not improved:
            break
    return mask, current


def estimate_worst_expansion(
    snapshot: GraphSnapshot,
    size: int,
    *,
    trials: int = 16,
    seed: SeedLike = None,
    greedy_sweeps: int = 1,
) -> ExpansionEstimate:
    """Randomized search for a small-``|N(I)|`` set of the given *size*.

    Candidates: uniform random subsets and BFS balls around random
    centers (the isoperimetric extremals of geometric graphs), each
    refined by greedy local descent.  Sound as a refuter: the returned
    value is always achievable by an explicit witness set.
    """
    n = snapshot.num_nodes
    size = require_positive_int(size, "size")
    require(size <= n, "size must be <= n")
    trials = require_positive_int(trials, "trials")
    rng = as_generator(seed)

    best_val = np.inf
    best_mask = _mask_from_nodes(range(size), n)
    for trial in range(trials):
        if trial % 2 == 0:
            center = int(rng.integers(n))
            mask = _bfs_ball(snapshot, center, size)
        else:
            mask = _mask_from_nodes(rng.choice(n, size=size, replace=False), n)
        if greedy_sweeps > 0 and size < n:
            mask, value = _greedy_descend(snapshot, mask, rng=rng,
                                          sweeps=greedy_sweeps)
        else:
            value = neighborhood_size(snapshot, mask)
        if value < best_val:
            best_val = float(value)
            best_mask = mask
            if best_val == 0:
                break
    return ExpansionEstimate(
        size=size,
        neighborhood_size=best_val,
        expansion=best_val / size,
        witness=best_mask,
    )


def expansion_profile(
    snapshot: GraphSnapshot,
    sizes: Sequence[int],
    *,
    trials: int = 16,
    seed: SeedLike = None,
    greedy_sweeps: int = 1,
) -> list[ExpansionEstimate]:
    """Worst-expansion estimates across several set *sizes*."""
    rng = as_generator(seed)
    return [
        estimate_worst_expansion(
            snapshot, s, trials=trials, seed=rng, greedy_sweeps=greedy_sweeps
        )
        for s in sizes
    ]


def trajectory_expansion(history: np.ndarray) -> np.ndarray:
    """Expansion ratios realised along a flooding trajectory.

    Given the informed-count history ``m_0, m_1, ..., m_T`` of a
    flooding run, returns ``(m_{t+1} - m_t) / m_t`` for each ``t`` —
    i.e. ``|N(I_t)| / |I_t|`` restricted to the *fresh* nodes, which is
    exactly the per-step expansion that Lemma 2.4 lower-bounds by
    ``k_i``.
    """
    m = np.asarray(history, dtype=float)
    require(m.ndim == 1 and len(m) >= 1, "history must be a 1-D array")
    if len(m) < 2:
        return np.empty(0)
    return (m[1:] - m[:-1]) / m[:-1]
