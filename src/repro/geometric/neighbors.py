"""Fixed-radius neighbor queries — the hot path of geometric flooding.

Geometric snapshots answer ``N(I)`` queries ("which nodes outside ``I``
are within distance ``R`` of some node of ``I``?").  A dense adjacency
matrix would cost ``O(n^2)`` memory; instead we exploit the spatial
structure.  Walkers of the geometric MEG sit on the lattice
``L_{n,eps}``, where adjacency is one fixed disk of lattice offsets:
:func:`lattice_within_radius` dilates the members' occupancy grid by
that disk and reads it back at every node's cell — no distances, no
trees, ``O(B g^2 R/eps)`` for ``B`` stacked trials on a ``g x g``
lattice, whatever ``|I|``.  Continuous positions (the mobility models,
explicit point sets) take a k-d tree over the *member* points and a
nearest-member query from every non-member — ``O(n log |I|)`` per step
(:func:`within_radius_of_members`) — or, for ``B`` stacked trials, the
shared cell grid of :func:`batched_within_radius`.
:func:`member_neighbor_counts` runs the same tree as a ball-count query,
giving every point its number of member neighbours — the exact integer
state the worst-expansion search updates swap by swap.
:func:`radius_csr` materialises the whole radius graph with one k-d pair
query as ascending CSR rows: the per-node view the geometric snapshots
cache for ``neighbors_of`` and gossip neighbour sampling.

Every query here, and every single-pair distance check of the geometric
snapshots, applies one inclusive edge rule: ``{u, v}`` is an edge iff
``d(u, v)^2 <= radius_bound2(R)``.  k-d trees compare squared distances
against the square of their query radius, so they are queried at the
radius whose square is that bound.

``scipy.spatial.cKDTree`` is the engine; this module wraps the exact
query patterns the library needs so the snapshot code stays free of
scipy details and the patterns are unit-testable against brute force.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from repro.util.validation import require, require_positive

__all__ = [
    "radius_bound2",
    "lattice_within_radius",
    "within_radius_of_members",
    "member_neighbor_counts",
    "batched_within_radius",
    "radius_edges",
    "radius_csr",
    "radius_degrees",
    "brute_force_within_radius",
]


#: Relative slack of the inclusive edge rule ``d(u, v) <= R``: it absorbs
#: round-off in the distance arithmetic, so a pair at exactly ``R``
#: connects however its distance was computed.
_RADIUS_SLACK = 1e-12


def _query_radius(radius: float) -> float:
    """The k-d query radius of the edge rule; its square is
    :func:`radius_bound2`."""
    return radius * (1 + _RADIUS_SLACK)


def radius_bound2(radius: float) -> float:
    """Squared-distance bound of the inclusive edge rule: two points are
    adjacent iff ``d^2 <= radius_bound2(R)``."""
    query = _query_radius(radius)
    return query * query


@functools.lru_cache(maxsize=64)
def _disk_half_widths(radius: float, eps: float,
                      grid_size: int) -> tuple[int, ...]:
    """The edge rule's disk of lattice offsets, as one half-width per row.

    Entry ``dy`` is the largest ``dx >= 0`` with ``(dx*eps)**2 +
    (dy*eps)**2 <= radius_bound2(R)``; rows run from ``dy = 0`` up to
    the last row the disk reaches, and offsets are capped at
    ``grid_size - 1`` (no two lattice points are farther apart).
    """
    bound2 = radius_bound2(radius)
    reach = min(int(math.sqrt(bound2) / eps) + 1, grid_size - 1)
    offset2 = (np.arange(reach + 1) * eps) ** 2
    widths = (offset2[:, None] + offset2[None, :] <= bound2).sum(axis=1) - 1
    return tuple(int(w) for w in widths[widths >= 0])


def _disk_dilation(occupied: np.ndarray,
                   half_widths: tuple[int, ...]) -> np.ndarray:
    """``reached[b, x, y]``: whether any ``occupied[b, x + dx, y + dy]``
    with ``|dx| <= half_widths[|dy|]`` is set (out-of-range cells empty).

    Rows are visited from the narrowest (largest ``|dy|``) to ``dy = 0``;
    one running OR over the ``x`` offsets is widened a unit at a time
    (two shifted ORs per unit) and each row ORs it in shifted by
    ``+-dy``.  Every step is a whole-array boolean OR, so the pass count
    is ``2 max(half_widths) + 2 len(half_widths) - 1``.
    """
    reached = np.zeros_like(occupied)
    rows = occupied.copy()
    width = 0
    for dy in range(len(half_widths) - 1, -1, -1):
        while width < half_widths[dy]:
            width += 1
            rows[:, width:] |= occupied[:, :-width]
            rows[:, :-width] |= occupied[:, width:]
        if dy == 0:
            reached |= rows
        else:
            reached[:, :, dy:] |= rows[:, :, :-dy]
            reached[:, :, :-dy] |= rows[:, :, dy:]
    return reached


def lattice_within_radius(
    ix: np.ndarray,
    iy: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    eps: float,
    grid_size: int,
) -> np.ndarray:
    """``N(I)`` of ``B`` stacked trials whose nodes sit on a lattice,
    answered by an exact disk stencil.

    Node ``j`` of trial ``b`` sits at ``(ix[b, j] * eps, iy[b, j] *
    eps)`` on the ``grid_size x grid_size`` lattice ``L_{n,eps}``.  Two
    lattice points are adjacent iff their index offset ``(dx, dy)``
    satisfies ``(dx*eps)**2 + (dy*eps)**2 <= radius_bound2(R)`` — one
    fixed disk of offsets.  So each trial's members are marked on a
    ``(g, g)`` occupancy grid, the grid is dilated by the disk (shifted
    boolean ORs, row by row of the disk), and the result is read back
    at every node's cell.  Coincident walkers share a cell, and a node
    at distance 0 of a member is reached like any other.  Work is
    ``O(B g^2 R/eps)`` — about ``4 R/eps`` OR passes over the ``(B, g,
    g)`` grid — independent of ``|I|``; no distance is computed.

    Parameters
    ----------
    ix, iy:
        Integer lattice indices in ``[0, grid_size)``, of shape ``(B,
        n)`` or ``(n,)`` (one placement shared by every row).
    members:
        ``(B, n)`` boolean mask of each trial's member set.
    radius:
        Transmission radius ``R`` (inclusive, as everywhere here).
    eps, grid_size:
        Lattice resolution and points per axis
        (:class:`~repro.geometric.lattice.Lattice`).

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` boolean mask, disjoint from *members*; row ``b``
        equals :func:`within_radius_of_members` on the coordinates of
        row ``b``.  (The two compute an offset's length with different
        round-off, so they could split only an offset whose length lies
        within that round-off of the slack band's outer edge
        ``R (1 + 1e-12)``.)
    """
    members = np.asarray(members, dtype=bool)
    require(members.ndim == 2, "members mask must be (B, n)")
    ix = np.broadcast_to(np.asarray(ix, dtype=np.int64), members.shape)
    iy = np.broadcast_to(np.asarray(iy, dtype=np.int64), members.shape)
    radius = require_positive(radius, "radius")

    num_trials, n = members.shape
    out = np.zeros((num_trials, n), dtype=bool)
    if not members.any() or members.all():
        return out
    g = grid_size
    require(min(ix.min(), iy.min()) >= 0 and max(ix.max(), iy.max()) < g,
            "lattice indices must lie in [0, grid_size)")
    cells = (np.arange(num_trials)[:, None] * g + ix) * g + iy
    occupied = np.zeros((num_trials, g, g), dtype=bool)
    occupied.ravel()[cells[members]] = True
    reached = _disk_dilation(occupied, _disk_half_widths(radius, eps, g))
    np.logical_and(reached.ravel()[cells], ~members, out=out)
    return out


def _prepare(positions: np.ndarray, boxsize: float | None) -> np.ndarray:
    """Wrap positions into [0, boxsize) when a toroidal metric is requested.

    ``np.mod`` rounds a tiny negative coordinate up to exactly *boxsize*
    (``np.mod(-1e-17, 10.0) == 10.0``), which a periodic cKDTree
    rejects; such values are folded to 0, the same point of the torus.
    """
    if boxsize is None:
        return positions
    wrapped = np.mod(positions, boxsize)
    wrapped[wrapped >= boxsize] = 0.0
    return wrapped


def within_radius_of_members(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Mask of non-member points within *radius* of any member point.

    Parameters
    ----------
    positions:
        ``(n, d)`` float array of point coordinates.
    members:
        Boolean mask of length ``n``.
    radius:
        Query radius ``R`` (inclusive: distance ``<= R`` connects, as in
        the paper's edge rule ``d(P_i, P_j) <= R``).
    boxsize:
        When given, distances are toroidal with period *boxsize* per
        axis (the torus mobility models of Section 3).

    Returns
    -------
    numpy.ndarray
        Boolean mask, disjoint from *members*.
    """
    positions = np.asarray(positions, dtype=float)
    members = np.asarray(members, dtype=bool)
    require(positions.ndim == 2, "positions must be (n, d)")
    require(members.shape == (positions.shape[0],), "members mask has wrong length")
    radius = require_positive(radius, "radius")

    out = np.zeros(positions.shape[0], dtype=bool)
    member_idx = np.flatnonzero(members)
    other_idx = np.flatnonzero(~members)
    if member_idx.size == 0 or other_idx.size == 0:
        return out
    positions = _prepare(positions, boxsize)
    tree = cKDTree(positions[member_idx], boxsize=boxsize)
    # Nearest member distance for each outside point; eps=0 exact.
    reach = _query_radius(radius)
    dist, _ = tree.query(positions[other_idx], k=1, distance_upper_bound=reach)
    out[other_idx[dist <= reach]] = True
    return out


def member_neighbor_counts(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Per point, the number of *other* member points within *radius*.

    One k-d tree over the members answers a ball-count query from every
    point; a member's count excludes itself.  Arguments as in
    :func:`within_radius_of_members`; returns an ``int64`` array of
    length ``n`` whose positive non-member entries are exactly that
    function's mask.
    """
    positions = np.asarray(positions, dtype=float)
    members = np.asarray(members, dtype=bool)
    require(positions.ndim == 2, "positions must be (n, d)")
    require(members.shape == (positions.shape[0],), "members mask has wrong length")
    radius = require_positive(radius, "radius")

    counts = np.zeros(positions.shape[0], dtype=np.int64)
    member_idx = np.flatnonzero(members)
    if member_idx.size == 0:
        return counts
    positions = _prepare(positions, boxsize)
    tree = cKDTree(positions[member_idx], boxsize=boxsize)
    counts[:] = tree.query_ball_point(positions, _query_radius(radius),
                                      return_length=True)
    counts[member_idx] -= 1
    return counts


#: Fall back to per-trial k-d queries when the cell grid would need more
#: than this many cells per point (pathologically small radii).
_MAX_CELLS_PER_POINT = 8


#: Cell-grid resolution of batched_within_radius: cells of edge
#: ``R / _CELLS_PER_RADIUS`` make the guaranteed box (every pair within
#: R no matter where in their cells the points sit) cover the full 3x3
#: neighborhood, so spread-out informed sets settle without distance
#: checks.
_CELLS_PER_RADIUS = 3.0


def _shifted_any(occupied: np.ndarray, offsets: list, *,
                 periodic: bool) -> np.ndarray:
    """Per cell: whether any *offsets*-shifted cell is occupied.

    ``result[b, x, y] = OR_(dx,dy) occupied[b, x+dx, y+dy]`` with
    toroidal wrap-around when *periodic* (out-of-range cells count as
    empty otherwise).  One C-level dilation over the ``(B, g, g)``
    stack; the offset set becomes the (symmetric) footprint.
    """
    g = occupied.shape[1]
    reach = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    if reach >= g and periodic:
        # Footprint wraps onto itself; fall back to explicit rolls.
        acc = np.zeros_like(occupied)
        for dx, dy in offsets:
            acc |= np.roll(occupied, (-dx, -dy), axis=(1, 2))
        return acc
    size = 2 * reach + 1
    footprint = np.zeros((1, size, size), dtype=bool)
    for dx, dy in offsets:
        # grey_dilation computes max over input[x - k], so reading
        # occupied[x + dx] needs the footprint entry at -dx.
        footprint[0, reach - dx, reach - dy] = True
    dilated = ndimage.grey_dilation(
        occupied.astype(np.uint8), footprint=footprint,
        mode="wrap" if periodic else "constant", cval=0)
    return dilated.astype(bool)


def batched_within_radius(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Per-trial :func:`within_radius_of_members` for ``B`` stacked trials,
    answered by **one** shared uniform cell grid.

    The engine's batched kernels hold the node positions of all trials
    as a ``(B, n, 2)`` stack.  A per-trial k-d tree pays a build *and* a
    nearest-member traversal per point per trial per step; here the
    whole batch shares one grid of square cells with edge
    ``c <= R / 3`` (cell ids carry the trial index, so trials can never
    mix):

    * a non-member with a member anywhere in a **guaranteed** cell —
      one whose farthest point is within ``R`` of anywhere in the
      non-member's cell — is settled with no distance computation,
      which covers almost every point once the informed sets are
      spread out;
    * the surviving points can only pair with members of the thin
      **maybe** annulus of cells; those candidate pairs are enumerated
      cell-against-cell (a ragged cross-join driven from the frontier
      member cells, so work scales with the frontier shell, not with
      the point count) and checked against the same
      :func:`radius_bound2` predicate as the k-d path.

    Work per call is ``O(B n + pairs-in-neighboring-cells)`` with small
    constants — no trees, no per-trial Python loop.  Degenerate radii
    (a grid finer than :data:`_MAX_CELLS_PER_POINT` cells per point)
    fall back to per-trial k-d queries.

    Parameters
    ----------
    positions:
        ``(B, n, 2)`` float array — trial ``b``'s points are
        ``positions[b]``.
    members:
        ``(B, n)`` boolean mask of each trial's member set.
    radius, boxsize:
        As in :func:`within_radius_of_members`.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` boolean mask; row ``b`` equals
        ``within_radius_of_members(positions[b], members[b], radius,
        boxsize=boxsize)``.
    """
    positions = np.asarray(positions, dtype=float)
    members = np.asarray(members, dtype=bool)
    require(positions.ndim == 3 and positions.shape[2] == 2,
            "positions must be (B, n, 2)")
    require(members.shape == positions.shape[:2],
            "members mask must be (B, n)")
    radius = require_positive(radius, "radius")

    num_trials, n, _ = positions.shape
    out = np.zeros((num_trials, n), dtype=bool)
    flat_members = members.ravel()
    if not flat_members.any() or flat_members.all():
        return out

    flat_pos = _prepare(positions.reshape(num_trials * n, 2), boxsize)
    if boxsize is not None:
        origin = np.zeros(2)
        span = float(boxsize)
    else:
        origin = flat_pos.min(axis=0)
        span = float((flat_pos - origin).max(initial=0.0))
    grid = max(1, math.ceil(span * _CELLS_PER_RADIUS / radius))
    if grid * grid > _MAX_CELLS_PER_POINT * n:
        for b in range(num_trials):
            out[b] = within_radius_of_members(positions[b], members[b],
                                              radius, boxsize=boxsize)
        return out
    cell = span / grid if span > 0 else 0.0

    if cell > 0:
        coords = np.clip(((flat_pos - origin) / cell).astype(np.int64),
                         0, grid - 1)
        cx, cy = coords[:, 0], coords[:, 1]
    else:  # all points coincide per axis
        cx = np.zeros(num_trials * n, dtype=np.int64)
        cy = cx
    trial = np.repeat(np.arange(num_trials, dtype=np.int64), n)
    cell_id = (trial * grid + cy) * grid + cx

    member_idx = np.flatnonzero(flat_members)
    other_idx = np.flatnonzero(~flat_members)
    num_cells = num_trials * grid * grid
    member_counts = np.bincount(cell_id[member_idx], minlength=num_cells)
    member_occ = (member_counts > 0).reshape(num_trials, grid, grid)
    periodic = boxsize is not None

    # Classify cell offsets by the distance bounds of their point pairs:
    # a *guaranteed* offset keeps even the farthest pair within R, a
    # *maybe* offset only the nearest.  With c <= R/3 the guaranteed box
    # spans the whole 3x3 neighborhood and beyond, so it settles almost
    # every point of a spread-out informed set with no distance work.
    bound2 = radius_bound2(radius)
    cell2 = cell * cell
    # Offsets beyond grid-1 cells reach no new cell (out of range when
    # Euclidean, already wrapped onto covered cells when toroidal), so
    # the clamp also keeps a tightly clustered cloud (span << radius,
    # hence a tiny grid) from enumerating a huge offset range.
    dmax = min(int(radius // cell) + 1, grid - 1) if cell > 0 else 0
    guaranteed = []
    maybe = []
    for dx in range(-dmax, dmax + 1):
        for dy in range(-dmax, dmax + 1):
            nearest = (max(abs(dx) - 1, 0) ** 2 + max(abs(dy) - 1, 0) ** 2) * cell2
            if nearest > bound2:
                continue
            farthest = ((abs(dx) + 1) ** 2 + (abs(dy) + 1) ** 2) * cell2
            if farthest <= radius * radius:
                guaranteed.append((dx, dy))
            else:
                maybe.append((dx, dy))

    out_flat = out.ravel()
    settled = _shifted_any(member_occ, guaranteed,
                           periodic=periodic).ravel()[cell_id[other_idx]]
    out_flat[other_idx[settled]] = True
    pending = other_idx[~settled]
    if pending.size == 0 or not maybe:
        return out

    # Surviving points have no member in their guaranteed box, so any
    # member within R sits in a *maybe* cell.  Those candidate pairs are
    # enumerated cell-against-cell (a ragged cross-join) and the join is
    # driven from whichever side occupies fewer cells — the few members
    # early in a flood, the few surviving non-members once the informed
    # sets have spread — so work scales with the frontier shell, never
    # with the point count.
    near_member = _shifted_any(member_occ, maybe, periodic=periodic)
    pending = pending[near_member.ravel()[cell_id[pending]]]
    if pending.size == 0:
        return out
    pending_cells = cell_id[pending]
    pending_counts = np.bincount(pending_cells, minlength=num_cells)
    pending_starts = np.concatenate(([0], np.cumsum(pending_counts)))
    pending_sorted = pending[np.argsort(pending_cells, kind="stable")]
    pending_occ = (pending_counts > 0).reshape(num_trials, grid, grid)
    member_starts = np.concatenate(([0], np.cumsum(member_counts)))
    members_sorted = member_idx[np.argsort(cell_id[member_idx],
                                           kind="stable")]

    drive_cells = np.flatnonzero(
        (member_counts > 0)
        & _shifted_any(pending_occ, maybe, periodic=periodic).ravel())
    target_cells = np.flatnonzero(pending_counts > 0)
    if drive_cells.size <= target_cells.size:
        drive_counts, drive_starts = member_counts, member_starts
        drive_sorted = members_sorted
        target_counts, target_starts = pending_counts, pending_starts
        target_sorted = pending_sorted
    else:
        drive_cells = target_cells
        drive_counts, drive_starts = pending_counts, pending_starts
        drive_sorted = pending_sorted
        target_counts, target_starts = member_counts, member_starts
        target_sorted = members_sorted
    pending_driven = drive_sorted is pending_sorted

    # One flat join across every (drive cell, maybe offset) combination:
    # J offset columns per cell, then the ragged cross-join over the
    # combinations whose target cell is occupied.  Halo-padded per-cell
    # grids make the offset lookups single gathers with no wrap-around
    # arithmetic or bounds handling.
    halo = dmax
    wide = grid + 2 * halo
    pad_mode = "wrap" if periodic else "constant"
    padded_counts = np.pad(
        target_counts.reshape(num_trials, grid, grid),
        ((0, 0), (halo, halo), (halo, halo)), mode=pad_mode).ravel()
    padded_starts = np.pad(
        target_starts[:-1].reshape(num_trials, grid, grid),
        ((0, 0), (halo, halo), (halo, halo)), mode=pad_mode).ravel()
    d_counts = drive_counts[drive_cells]
    d_starts = drive_starts[drive_cells]
    d_trial = drive_cells // (grid * grid)
    d_cy, d_cx = np.divmod(drive_cells - d_trial * (grid * grid), grid)
    dxs = np.asarray([o[0] for o in maybe], dtype=np.int64)
    dys = np.asarray([o[1] for o in maybe], dtype=np.int64)
    ncx = (d_cx[:, None] + (dxs[None, :] + halo)).ravel()
    ncy = (d_cy[:, None] + (dys[None, :] + halo)).ravel()
    ncell = (np.repeat(d_trial, dxs.shape[0]) * wide + ncy) * wide + ncx
    lb = padded_counts[ncell]
    sel = lb > 0
    if not sel.any():
        return out
    lb = lb[sel]
    la = np.repeat(d_counts, dxs.shape[0])[sel]
    d_start = np.repeat(d_starts, dxs.shape[0])[sel]
    t_start = padded_starts[ncell[sel]]
    # Ragged cross-join without integer division: expand combos to
    # their drive-side entries, then each entry to its target segment.
    num_entries = int(la.sum())
    combo_first = np.concatenate(([0], np.cumsum(la)[:-1]))
    within_d = np.arange(num_entries) - np.repeat(combo_first, la)
    entry_drive = drive_sorted[np.repeat(d_start, la) + within_d]
    entry_lb = np.repeat(lb, la)
    entry_t_start = np.repeat(t_start, la)
    total = int(entry_lb.sum())
    entry_first = np.concatenate(([0], np.cumsum(entry_lb)[:-1]))
    within_t = np.arange(total) - np.repeat(entry_first, entry_lb)
    pair_drive = np.repeat(entry_drive, entry_lb)
    pair_target = target_sorted[np.repeat(entry_t_start, entry_lb) + within_t]
    delta = flat_pos[pair_drive] - flat_pos[pair_target]
    if periodic:
        # Cell coordinates sit within one period, so the wrap is a
        # conditional +-boxsize — no division.
        half = boxsize / 2.0
        np.subtract(delta, boxsize, out=delta, where=delta > half)
        np.add(delta, boxsize, out=delta, where=delta < -half)
    hits = np.einsum("ij,ij->i", delta, delta) <= bound2
    out_flat[(pair_drive if pending_driven else pair_target)[hits]] = True
    return out


def _radius_pairs(positions: np.ndarray, radius: float,
                  boxsize: float | None) -> np.ndarray:
    """Every pair ``i < j`` within *radius*, as an ``(m, 2)`` int64 array
    in the k-d tree's order."""
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    radius = require_positive(radius, "radius")
    tree = cKDTree(positions, boxsize=boxsize)
    pairs = tree.query_pairs(_query_radius(radius), output_type="ndarray")
    return pairs.astype(np.int64, copy=False)


def radius_edges(positions: np.ndarray, radius: float, *,
                 boxsize: float | None = None) -> np.ndarray:
    """All undirected edges ``{u, v}`` with ``d(u, v) <= radius``.

    Returns an ``(m, 2)`` int64 array with ``u < v``.  Used to
    materialise full geometric snapshots for expansion analysis and
    tests (not on the flooding hot path).
    """
    return np.sort(_radius_pairs(positions, radius, boxsize), axis=1)


def radius_csr(positions: np.ndarray, radius: float, *,
               boxsize: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The whole radius graph as CSR arrays ``(indptr, indices)``.

    One k-d pair query under the inclusive edge rule, symmetrised: node
    ``u``'s neighbours are ``indices[indptr[u]:indptr[u + 1]]``, strictly
    ascending, without ``u`` itself.  Ascending rows are what make a
    rank-``k`` pick from a row equal to the ``k``-th set column of the
    node's boolean neighbourhood row.  Both arrays are ``int64`` and
    read-only, so row views handed out of a cached CSR cannot corrupt it.
    """
    n = np.shape(positions)[0]
    pairs = _radius_pairs(positions, radius, boxsize)
    # One sort of the combined (row, column) keys orders every row and
    # its columns at once; rows are then recovered by counting.
    keys = np.concatenate((pairs[:, 0] * n + pairs[:, 1],
                           pairs[:, 1] * n + pairs[:, 0]))
    keys.sort()
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def radius_degrees(positions: np.ndarray, radius: float, *,
                   boxsize: float | None = None) -> np.ndarray:
    """Degree of every point in the radius graph (co-located points connect)."""
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    radius = require_positive(radius, "radius")
    tree = cKDTree(positions, boxsize=boxsize)
    counts = tree.query_ball_point(positions, _query_radius(radius), return_length=True)
    return np.asarray(counts, dtype=np.int64) - 1  # exclude self


def brute_force_within_radius(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Reference ``O(n * |I|)`` implementation of
    :func:`within_radius_of_members` for tests."""
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    members = np.asarray(members, dtype=bool)
    member_pos = positions[members]
    out = np.zeros(positions.shape[0], dtype=bool)
    if member_pos.size == 0:
        return out
    bound2 = radius_bound2(radius)
    for idx in np.flatnonzero(~members):
        delta = member_pos - positions[idx]
        if boxsize is not None:
            delta -= boxsize * np.round(delta / boxsize)
        if np.any(np.einsum("ij,ij->i", delta, delta) <= bound2):
            out[idx] = True
    return out
