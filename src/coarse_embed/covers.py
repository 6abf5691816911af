"""Covers of finite metric windows and their measured statistics.

Lebesgue numbers use the open-ball convention: the Lebesgue number at a
point is the largest r such that the open r-ball around it lies inside
some cover set.  On integer metrics the open r-ball is the closed
(r-1)-ball, so the certified condition at level r reads: every point
whose interior radius is at least r-1 admits a set containing its closed
(r-1)-ball.  The reported Lebesgue number is the largest r for which the
condition holds at every level 1..r (a higher level constrains fewer
points, so it can hold where a lower one fails), capped at 1 + max
interior radius; when the cap binds the value is flagged as
window-truncated.  On other metrics the open r-ball is every window point
at distance less than r, so level 1 asks more than coverage there.  The
open r-ball lies in a set when the point is at distance at least r from
its complement: ``boundary_distance`` reads that distance for the
Lebesgue scan and for the partition-of-unity weights of ``kernels``.

Every cover is built by ``grouped_cover``: one set per key.  The
compression and dilation envelopes of a map, rho_minus and rho_plus, are
built from measured pairs and read by ``Envelopes``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import CoverageError


class Cover:
    """A finite family of point sets over a FiniteMetricSpace.

    sets     list of tuples of point indices, each named by its place (id)
    """

    def __init__(self, space, sets, name=""):
        self.space = space
        self.sets = [tuple(sorted(s)) for s in sets]
        self.frozen = [frozenset(s) for s in self.sets]
        self.name = name
        if any(not s for s in self.sets):
            raise ValueError("empty cover set")
        self._membership = None
        self._weights = None        # set weights, shared by every p
        self._radii = {}            # row radii shared by its pou kernels
        self._classes = None        # translation classes of its pou rows

    def __len__(self):
        return len(self.sets)

    def membership(self):
        """point index -> list of set ids containing it (cached)."""
        if self._membership is None:
            mem = [[] for _ in range(len(self.space))]
            for sid, s in enumerate(self.sets):
                for i in s:
                    mem[i].append(sid)
            self._membership = mem
        return self._membership

    def check_coverage(self):
        for i, owners in enumerate(self.membership()):
            if not owners:
                raise CoverageError(
                    f"cover {self.name or '?'} misses point {self.space.points[i]}",
                    witness=self.space.points[i])
        return True


@dataclass
class CoverStats:
    """Measured statistics of a cover on its window, each with the witness
    its own measurement found.

    multiplicity_point  the first point lying in multiplicity sets
    mesh_witness        (set id, pair of points) of the first widest set,
                        the pair at distance mesh
    lebesgue_limit      the first point violating level lebesgue + 1, or
                        None when the scan was truncated
                        (lebesgue_truncated)

    mesh is exact: every set's diameter comes from ``set_diameter``, the
    spreads of the window's signed-sum columns (``space.signed_sums``,
    built once per grid window of at most 8 coordinates and shared by
    every cover on it) or a pairwise scan pruned through the better of
    two pivots (the set's first point and the window's deepest point).
    mesh_exact is therefore always True and mesh_witnessed always mesh;
    both stay for reports that print them.
    """
    lebesgue: int
    lebesgue_limit: object
    multiplicity: int
    multiplicity_point: object
    mesh: object            # int or Fraction
    mesh_witness: tuple
    n_sets: int = 0
    mesh_exact = True

    @property
    def lebesgue_truncated(self):
        return self.lebesgue_limit is None

    @property
    def mesh_witnessed(self):
        return self.mesh

    @property
    def delta(self):
        """p -> lebesgue / multiplicity^(2/p), for p = 1, 2, 3."""
        return {p: float(self.lebesgue) / float(self.multiplicity) ** (2.0 / p)
                for p in (1, 2, 3)}


def multiplicity(cover):
    mem = cover.membership()
    best_i = max(range(len(mem)), key=lambda i: len(mem[i]))
    return len(mem[best_i]), cover.space.points[best_i]


def set_diameter(space, point_indices):
    """Exact diameter of one set, with a pair of its points at that
    distance: (value, (a, b)).

    A grid window with ``signed_sums`` reads the set's entries of each
    column: the diameter is the largest spread (max - min) over the
    columns, and the pair is the first argmax and argmin of the first
    column attaining it; no sum is recomputed per set.  Other spaces,
    grids of more than 8 coordinates among them, run a pairwise scan, on
    the space's scan_view (integer numerators on rational windows), over
    the points ranked by their distance r to a pivot c, pruned by the
    triangle inequality d(x, y) <= r(x) + r(y); c need not lie in the
    set, so the scan is exact for any c.  The pivot is whichever of the
    set's first point and the window's deepest point (``space.deepest``)
    has the smaller eccentricity over the set.  On a ball window the
    deepest point is the centre, so the scan stops as soon as the largest
    distance found reaches twice the next point's radius.
    """
    labels = space.points
    if len(point_indices) == 1:
        return 0, (labels[point_indices[0]],) * 2
    sums = space.signed_sums
    if sums is not None:
        best, winner = 0, [0]       # no spread yet: the pair is the first point twice
        for col in sums:
            vals = list(map(col.__getitem__, point_indices))
            spread = max(vals) - min(vals)
            if spread > best:
                best, winner = spread, vals
        a, b = (labels[point_indices[winner.index(v)]]
                for v in (max(winner), min(winner)))
        return best, (a, b)
    coords, dist, _ = space.scan_view()
    pts = [coords[i] for i in point_indices]
    radii = [dist(pts[0], p) for p in pts]
    deep = coords[space.index[space.deepest]]
    if deep != pts[0]:
        centred = [dist(deep, p) for p in pts]
        if max(centred) < max(radii):
            radii = centred
    order = sorted(range(len(pts)), key=radii.__getitem__, reverse=True)
    ranked = [pts[i] for i in order]
    radii = [radii[i] for i in order]
    best, arg = 0, (0, 0)
    for i in range(len(ranked)):
        if radii[i] * 2 <= best:
            break
        for j in range(i + 1, len(ranked)):
            if radii[i] + radii[j] <= best:
                break
            d = dist(ranked[i], ranked[j])
            if d > best:
                best, arg = d, (i, j)
    a, b = (labels[point_indices[order[k]]] for k in arg)
    return space.unscale(best), (a, b)


def mesh(cover):
    """Largest set diameter, exact for every set.  Returns (value, True,
    (set id, pair)): the exactness flag, which the benchmark's tracer
    reads, and the first widest set with the pair realizing its diameter
    (None for a cover without sets)."""
    value, witness = 0, None
    for sid, s in enumerate(cover.sets):
        d, pair = set_diameter(cover.space, s)
        if witness is None or d > value:
            value, witness = d, (sid, pair)
    return value, True, witness


def boundary_distance(space, i, sets, cap):
    """min(cap, the largest r such that one of sets (frozensets) holds
    every window point closer than r to point i), 0 without sets.  For one
    set holding i this is the distance from i to the set's complement.

    Integer metrics walk the shells 0, 1, 2, ... of i (shell 0 is i), each
    built once for all sets: a set reaches r when it holds shells 0 to r-1.
    Any other metric takes each set's complement distance on the space's
    scan_view (integer numerators on rational windows).  Both return cap
    as soon as one set reaches it.
    """
    if space.integer_metric:
        shells, reach = [(i,)], 0
        for s in sets:
            if i not in s:
                continue
            r = 1
            while r < cap:
                if r == len(shells):
                    shells.append(space.shell(i, r))
                if not s.issuperset(shells[r]):
                    break
                r += 1
            if r >= cap:
                return cap
            reach = max(reach, r)
        return reach
    coords, dist, D = space.scan_view()
    a = coords[i]
    limit = cap * D
    best = 0
    for s in sets:
        near = min((dist(a, q) for j, q in enumerate(coords) if j not in s),
                   default=limit)
        if near >= limit:
            return cap
        best = max(best, near)
    return space.unscale(best)


def lebesgue_condition(cover, r):
    """Witness point violating the level-r condition, or None.

    Condition: every point with interior radius >= r-1 has the open r-ball
    around it inside some cover set, that is, its owner sets reach r
    (``boundary_distance``).
    """
    space = cover.space
    radii, frozen = space.interior_radius, cover.frozen.__getitem__
    for i, owners in enumerate(cover.membership()):
        if radii[i] >= r - 1 and boundary_distance(space, i, map(frozen, owners), r) < r:
            return space.points[i]
    return None


def certified_lebesgue(cover, scan_cap=None):
    """Largest certified level, with the point that limits it.

    Returns (level, limit): limit is the first point violating level + 1,
    or None when the scan hit the cap (either 1 + max interior radius, or
    the caller's scan_cap) without finding a violation, so the window
    cannot certify more (the level is window-truncated).
    """
    space = cover.space
    cap = space.max_interior_radius() + 1
    if scan_cap is not None:
        cap = min(cap, scan_cap)
    level = 0
    while level < cap:
        limit = lebesgue_condition(cover, level + 1)
        if limit is not None:
            return level, limit
        level += 1
    return level, None


def cover_stats(cover, scan_cap=None):
    cover.check_coverage()
    leb, limit = certified_lebesgue(cover, scan_cap=scan_cap)
    mult, point = multiplicity(cover)
    s, _, witness = mesh(cover)
    return CoverStats(lebesgue=leb, lebesgue_limit=limit, multiplicity=mult,
                      multiplicity_point=point, mesh=s, mesh_witness=witness,
                      n_sets=len(cover))


def delta_consistency_report(stats):
    """Witnessed instances relating the cover's statistics: the cover
    shows that a multiplicity-m family can reach Lebesgue level L with
    this mesh, so it witnesses both an upper bound on the mesh-growth
    function at L and a lower bound on delta_p at its own mesh.  Recorded
    for comparison across constructions; nothing here is an assertion.
    One row for each p = 1, 2, 3 of ``CoverStats.delta``."""
    return [{
        "p": p,
        "lebesgue": stats.lebesgue,
        "multiplicity": stats.multiplicity,
        "mesh": float(stats.mesh),
        "delta_witness_at_mesh": delta,
        "mesh_growth_upper_at_L": float(stats.mesh),
    } for p, delta in stats.delta.items()]


# ---------------------------------------------------------------------------
# Constructions


def balls_cover(space, r):
    """One set per point: all window points within distance r of it.

    On integer metrics the closed r-ball equals the closed floor(r)-ball.
    The metric is symmetric, so the ball of c is the set of points whose
    own ball holds c.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    rad = math.floor(r) if space.integer_metric else r
    return grouped_cover(space, lambda i: space.closed_ball(i, rad), f"balls r={r}")


def interval_cover(space, length=3, step=2, anchor=-1):
    """Cover of a 1-dimensional grid window by integer intervals
    [c, c + length) with c in anchor + step * Z, in increasing c.

    Default (length 3, step 2, anchor -1) is the classic multiplicity-2
    cover of the line by the sets {2c-1, 2c, 2c+1}.
    """
    def starts(i):
        x = space.points[i][0]
        first = x - length + 1
        return range(first + (anchor - first) % step, x + 1, step)

    return grouped_cover(space, starts, f"intervals len={length} step={step}")


class Envelopes:
    """The compression and dilation envelopes of a map, from measured
    (source distance, target distance) rows.

    rows       the rows, sorted
    rho_minus  sorted (d, min target distance over rows at source >= d)
    rho_plus   sorted (d, max target distance over rows at source <= d)

    Both lists hold one entry per distinct measured source distance d.
    """

    def __init__(self, rows):
        self.rows = sorted(rows)
        plus, minus = {}, {}
        hi = lo = None
        for d, e in self.rows:
            if hi is None or e > hi:
                hi = e
            plus[d] = hi
        for d, e in reversed(self.rows):
            if lo is None or e < lo:
                lo = e
            minus[d] = lo
        self.rho_plus = list(plus.items())
        self.rho_minus = sorted(minus.items())
        self._distances = list(plus)

    def minus(self, t):
        """rho_minus at the smallest measured distance >= t, and 0 for t <= 0
        (the diagonal).  Between measured distances this can only overstate
        the ambient rho_minus, so a passing upper bound on it rests on
        measured pairs.  Above the largest measured distance no pair backs
        a value, and the read is None."""
        if t <= 0:
            return 0
        i = bisect_left(self._distances, t)
        return self.rho_minus[i][1] if i < len(self.rho_minus) else None

    def plus(self, t):
        """rho_plus at the largest measured distance <= t, and 0 below the
        smallest."""
        i = bisect_right(self._distances, t)
        return self.rho_plus[i - 1][1] if i else 0


def grouped_cover(space, keys_of, name):
    """Cover of space with one set per key: point i joins the set of every
    key in keys_of(i).  Sets come in sorted key order, so a set's id is its
    key's rank among the keys met, and hold their points in window order.
    Every cover is built here."""
    groups = {}
    for i in range(len(space)):
        for key in keys_of(i):
            groups.setdefault(key, []).append(i)
    return Cover(space, [groups[key] for key in sorted(groups)], name=name)


def pullback_cover(f, domain, cover, name=""):
    """Preimage cover: one set f^{-1}(U) per cover set, empties dropped."""
    target_index = cover.space.index
    mem = cover.membership()

    def owners(i):
        p = domain.points[i]
        q = f(p)
        j = target_index.get(q)
        if j is None:
            raise CoverageError(f"image point {q} not in target window", witness=p)
        return mem[j]

    return grouped_cover(domain, owners, name or f"pullback({cover.name})")


def check_pullback_inequalities(env, cover, pulled):
    """Measured form of the dilation/compression relations of the cover
    pulled = f*U induced from cover = U: rho_plus(L(f*U)) >= L(U) and
    rho_minus(S(f*U)) <= S(U), read from the ``Envelopes`` env of f over
    the measured pairs.  The second fails when no pair lies at distance
    S(f*U) or more."""
    st_pull = cover_stats(pulled)
    st_orig = cover_stats(cover)
    lhs_plus = env.plus(st_pull.lebesgue)
    lhs_minus = env.minus(st_pull.mesh)
    return {
        "pulled_lebesgue": st_pull.lebesgue,
        "rho_plus_at_pulled_lebesgue": lhs_plus,
        "orig_lebesgue": st_orig.lebesgue,
        "plus_ok": lhs_plus >= st_orig.lebesgue or st_pull.lebesgue_truncated,
        "pulled_mesh": st_pull.mesh,
        "rho_minus_at_pulled_mesh": lhs_minus,
        "orig_mesh": st_orig.mesh,
        "minus_ok": lhs_minus is not None and lhs_minus <= st_orig.mesh,
    }


def extend_by_cosets(cover, m, window):
    """Spread a cover of the central lamp block along block cosets.

    The window is a cursor-0 portion of a word-metric ball.  Each window
    element splits into its outside-the-block lamp pattern (the coset key)
    and its block part; the extended cover translates every cover set by
    each coset representative present in the window.  Distinct cosets are
    at least 2m+1 apart, so mesh and multiplicity are unchanged and the
    certified Lebesgue level is min(L(cover), 2m+1) up to truncation.
    """
    from .lamplighter import coset_key, block_part

    block_index = cover.space.index
    mem = cover.membership()

    def keys_of(i):
        label = window.points[i]
        j = block_index.get(block_part(label, m))
        if j is None:
            return ()
        key = coset_key(label, m)
        return [(key, sid) for sid in mem[j]]

    return grouped_cover(window, keys_of, f"{cover.name}|cosets m={m}")

