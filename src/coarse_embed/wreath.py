"""Covers of lamplighter windows composed from line and lamp-block covers.

The pipeline mirrors the normal-subgroup composition: cover the cursor
line by overlapping intervals (multiplicity 2), cover the central lamp
block through its grid coordinates by a pullback lattice cover, spread
that over block cosets, and take the common refinement of the interval
preimages with the lamp-part preimages.  All statistics are then measured
on the window; the advertised contract at target level L with block
half-width m = 12 L is multiplicity at most 96 L, certified Lebesgue
level at least L, and mesh at most 36864 L^3.
"""

from __future__ import annotations

import math

from .covers import cover_stats, extend_by_cosets, grouped_cover, pullback_cover
from .errors import ContractViolation
from .lamplighter import coset_key, lamp_coordinates, lamp_parts_window
from .lattice import canonical_spec, zk_cover
from .spaces import lattice_window


def line_interval_cover_sets(lo, hi, L):
    """Intervals of length 4L stepping by 2L, two interleaved families,
    restricted to [lo, hi]: multiplicity 2, Lebesgue level L+1 on the line."""
    sets = []
    c = (lo - 4 * L) - ((lo - 4 * L) % (2 * L))
    while c <= hi:
        cells = [x for x in range(c, c + 4 * L) if lo <= x <= hi]
        if cells:
            sets.append((c, (c // (2 * L)) % 2, cells))
        c += 2 * L
    return sets


def block_cover(window, m, L_target, mesh_budget=None):
    """Cover of the cursor-0 portion of a ball window through the block
    coordinates.

    The block elements embed into the grid of lamp vectors; the lattice
    pullback cover of that sparse grid window comes back through the
    coordinate map, and coset translation spreads it over the rest of the
    cursor-0 portion.  Returns (cover of the cursor-0 window, the block
    cover, the grid cover's stats).
    """
    k = 2 * m - 1
    lamp_w = lamp_parts_window(window)
    block_labels = [p for p in lamp_w.points if not coset_key(p, m)]
    if not block_labels:
        raise ContractViolation("window has no block elements")
    block_space = lamp_w.subspace(block_labels, f"{lamp_w.window_tag}|block m={m}")
    coords = {p: lamp_coordinates(p, m) for p in block_labels}
    grid_pts = sorted(set(coords.values()))
    grid = lattice_window(grid_pts, k, f"lamp coordinates m={m}")
    spec = canonical_spec(k, L_target)
    cover_z, stats_z, _ = zk_cover(grid, k, L_target, spec=spec,
                                   mesh_bound=mesh_budget, strict=False)
    inner = pullback_cover(coords.__getitem__, block_space, cover_z,
                           name=f"block cover m={m}")
    extended = extend_by_cosets(inner, m, lamp_w)
    return extended, inner, stats_z


def wreath_cover(window, L):
    """Composed cover of a lamplighter ball window at target level L.

    Returns (cover, stats, detail); detail carries the contract's
    multiplicity and mesh bounds, which the lamplighter-cover experiment
    checks with witnesses.
    """
    if L < 1:
        raise ValueError("target level must be at least 1")
    m = 12 * math.ceil(L)
    lamp_target = 2 * m
    mesh_budget = 16 * m ** 3 - 4 * (m - 1)
    lamp_cov, _, stats_z = block_cover(window, m, lamp_target,
                                           mesh_budget=mesh_budget)

    cursors = [label[1] for label in window.points]
    intervals = line_interval_cover_sets(min(cursors), max(cursors), math.ceil(L))
    intervals_at = {}
    for n, (_, _, cells) in enumerate(intervals):
        for x in cells:
            intervals_at.setdefault(x, []).append(n)
    lamp_index = lamp_cov.space.index
    mem = lamp_cov.membership()

    # one set per (interval number, lamp-cover set id) pair that meets;
    # the lamp-parts window holds every label's lamp part
    def keys_of(i):
        lamps, cursor = window.points[i]
        owners = mem[lamp_index[(lamps, 0)]]
        return [(n, sid) for n in intervals_at[cursor] for sid in owners]

    cover = grouped_cover(
        window, keys_of, f"wreath cover L={L} m={m}",
        family=lambda key: (intervals[key[0]][1], lamp_cov.family[key[1]]),
        tag=lambda key: (intervals[key[0]][0], lamp_cov.tags[key[1]]))

    stats = cover_stats(cover, scan_cap=max(2, int(L) + 2))
    detail = {
        "m": m,
        "lamp_target": lamp_target,
        "grid_stats": stats_z,
        "multiplicity_bound": 96 * L,
        "mesh_bound": 36864 * L ** 3,
    }
    return cover, stats, detail
