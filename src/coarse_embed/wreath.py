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

from .covers import (cover_stats, extend_by_cosets, grouped_cover, interval_cover,
                     pullback_cover)
from .errors import ContractViolation
from .lamplighter import coset_key, lamp_coordinates, lamp_parts_window
from .lattice import canonical_spec, zk_cover
from .spaces import lattice_window


def block_cover(window, m, L_target):
    """Cover of the lamp parts of a ball window through the block
    coordinates.

    The block elements embed into the grid of lamp vectors; the lattice
    pullback cover of that sparse grid window comes back through the
    coordinate map, and coset translation spreads it over the rest of the
    lamp parts.  Returns (cover of the lamp-parts window, the grid cover's
    stats).
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
    cover_z, stats_z, _ = zk_cover(grid, k, L_target, spec=canonical_spec(k, L_target),
                                   strict=False)
    inner = pullback_cover(coords.__getitem__, block_space, cover_z,
                           name=f"block cover m={m}")
    return extend_by_cosets(inner, m, lamp_w), stats_z


def wreath_cover(window, L):
    """Composed cover of a lamplighter ball window at target level L.

    Returns (cover, stats, detail); detail carries the contract's
    multiplicity and mesh bounds, which the lamplighter-cover experiment
    checks with witnesses.
    """
    if L < 1:
        raise ValueError("target level must be at least 1")
    m = 12 * math.ceil(L)
    lamp_cov, stats_z = block_cover(window, m, 2 * m)

    # intervals of length 4L stepping by 2L: multiplicity 2, Lebesgue
    # level L+1 on the cursor line
    step = 2 * math.ceil(L)
    cursors = [label[1] for label in window.points]
    line = lattice_window([(c,) for c in range(min(cursors), max(cursors) + 1)], 1,
                          f"{window.window_tag}|cursor line")
    intervals = interval_cover(line, length=2 * step, step=step, anchor=0)
    on_line = intervals.membership()
    lamp_index = lamp_cov.space.index
    mem = lamp_cov.membership()

    # one set per (interval number, lamp-cover set id) pair that meets;
    # the lamp-parts window holds every label's lamp part
    def keys_of(i):
        lamps, cursor = window.points[i]
        owners = mem[lamp_index[(lamps, 0)]]
        return [(n, sid) for n in on_line[line.index[(cursor,)]] for sid in owners]

    cover = grouped_cover(window, keys_of, f"wreath cover L={L} m={m}")

    stats = cover_stats(cover, scan_cap=max(2, int(L) + 2))
    detail = {
        "m": m,
        "grid_stats": stats_z,
        "multiplicity_bound": 96 * L,
        "mesh_bound": 36864 * L ** 3,
    }
    return cover, stats, detail
