"""Finite windows of metric spaces with exact integer or rational distances.

Every space built here is a finite sample of an ambient space (a box in Z^k,
a truncated regular tree with a marked direction to infinity, a word-metric
ball, a rational point set in a zero-sum hyperplane).  Each point carries an
``interior_radius``: the largest r such that the ambient ball of radius r
around the point lies entirely inside the window.  Downstream statistics
(Lebesgue numbers, kernel Lipschitz constants) restrict themselves to
sufficiently interior points so that window truncation never fakes a result.
Every constructor returns its ``FiniteMetricSpace``.  A tree window
derives two index arrays from its labels.  ``up`` holds each point's
first step toward the marked end; rays (``ray``) walk it, and it lists
the window's unit edges, since two tree points at distance 1 are one
``up`` step apart.  ``ray_reach`` counts the steps each point's ray stays
inside (reach[i] = reach[up[i]] + 1), so a ray domain (``ray_domain``)
filters it instead of walking every ray.

The ``up`` steps make the window a forest (a tree ``subspace`` may have
several roots), and ``ray_reach`` is each point's depth in it.  One pass
over the points in ``ray_reach`` order numbers them in depth-first order
(``tour``): key j is an ancestor of point i exactly when tin[j] <= tin[i]
< tout[j], and then their distance is reach[i] - reach[j].  A tree
window's ``farthest`` (the ray kernels' support radius) reads an ancestor
key's distance so, with two compares and a subtraction, and measures every
other key with ``dist`` on labels, so each key gets its true distance and a
ray walk that strays off the ray still shows.

Two rays toward the marked end coincide from their first shared point on,
so everything a ray kernel's rows at i and j have in common is fixed by the
steps (a, b) that i and j take to that point; ``ray_meet`` walks ``up``
from i only until i is an ancestor of j, and the point it stops at is the
shared one, b = reach[j] - reach[i] steps from j.

Shells and closed balls take a point's index and return indices.  A
``grid_space`` box records the index stride of each coordinate, so the
shell of radius r around a point of interior radius at least r is that
index plus fixed steps; other grid and lamplighter shells look their
ambient labels up, and every other shell, a tree's included, scans the
window.

A ``rational_window`` keeps its labels cleared to integer numerators over
one denominator, so the scans over a whole window (``scan_view``) compare
integers; every other window scans its labels with its metric.

A grid window of at most 8 coordinates keeps one column of signed
coordinate sums per sign vector (+1, s2, ..., sk), built once when first
read (``signed_sums``).  On integer points l1(a, b) is the largest
|col[a] - col[b]| over the columns, so set diameters
(``covers.set_diameter``) and the farthest of a point's row keys
(``farthest``, the pou support radius) are read from column extremes,
exactly and without a ``dist`` call.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .errors import guard_cap

_GRID_SHELL_CACHE = {}
# window kinds whose metric takes integer values
INTEGER_KINDS = ("grid", "tree", "lamplighter")


class FiniteMetricSpace:
    """A finite point set with an exact metric and per-point interior radii.

    points            ordered sequence of hashable labels
    dist              callable (label, label) -> int | Fraction, exact
    window_tag        human-readable description of the window
    interior_radius   list, aligned with points
    geodesic          True if any two window points are joined by a geodesic
                      running inside the window (grids, truncated trees)
    kind              grid, rational, tree, lamplighter or None (any other
                      metric): picks shells and pair policy
    strides           on a ``grid_space`` box, the index step of a unit move
                      along each coordinate; None on every other window
    up                on a tree window, the index of each point's first step
                      toward the marked end (``tree_up``), None where it
                      leaves the window; derived from the labels when read
    ray_reach         on a tree window, how many steps each point's ray
                      toward the marked end stays inside: 0 where ``up`` is
                      None, else one more than at ``up``; derived when read
    tour              on a tree window, (tin, tout): the depth-first entry
                      and exit numbers of each point in the forest of
                      ``up`` steps, so j is an ancestor of i (or i itself)
                      exactly when tin[j] <= tin[i] < tout[j]; built when
                      read
    ray_radii         on a tree window, one dict point-index -> support
                      radius per ray length, shared by the ray kernels of
                      that length (``kernels._ray_kernel``)
    unit_edges        (first, second): the pairs i < j at distance 1, in
                      index order, collected when read: the pairs
                      {i, up[i]} on a tree window, from ``shell(i, 1)``
                      on any other
    signed_sums       on a grid window of at most 8 coordinates, one list
                      per sign vector (+1, s2, ..., sk), with the mask's
                      bit b the sign of coordinate b + 2: point i's sum
                      of s_m * x_m; built when read, None on every other
                      window
    farthest          function (i, keys) -> the largest distance from point
                      i to the points of keys: from ``signed_sums`` where
                      the window has them, from ``tour`` and ``ray_reach``
                      for a tree window's ancestor keys (``dist`` on the
                      labels of the others), a ``scan_view`` scan
                      elsewhere; chosen when read
    """

    def __init__(self, points, dist, window_tag, interior_radius,
                 geodesic=False, kind=None):
        self.points = list(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) != len(self.points):
            raise ValueError("duplicate point labels")
        self.dist = dist
        self.window_tag = window_tag
        self.interior_radius = list(interior_radius)
        self.geodesic = geodesic
        self.kind = kind
        self.strides = None
        self.ray_radii = {}
        self._deltas = {}

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, label):
        return label in self.index

    def dist_i(self, i, j):
        return self.dist(self.points[i], self.points[j])

    def radius_of(self, label):
        return self.interior_radius[self.index[label]]

    def scan_view(self):
        """(coords, dist, D) for scans over every window point:
        dist(coords[i], coords[j]) is D times the distance of points i and
        j, and ``unscale`` turns such a value back into the distance.  Here
        the labels, the metric and 1; rational windows scan integer
        numerators instead."""
        return self.points, self.dist, 1

    def unscale(self, v):
        return v

    @cached_property
    def signed_sums(self):
        if self.kind != "grid" or not self.points or len(self.points[0]) > 8:
            return None
        first, *rest = zip(*self.points)
        columns = []
        for mask in range(2 ** len(rest)):
            col = first
            for b, coord in enumerate(rest):
                col = map(operator.add if (mask >> b) & 1 else operator.sub, col, coord)
            columns.append(list(col))
        return columns

    @cached_property
    def farthest(self):
        """The function (i, keys) -> the largest distance from point i to
        the points of keys (indices, read once, so any iterable), 0 over
        none.  With ``signed_sums`` it takes, over the columns, the largest
        max(col[keys]) - col[i] or col[i] - min(col[keys]); on a tree
        window an ancestor key j of i (``tour``) is reach[i] - reach[j]
        away and every other key is measured by ``dist`` on labels;
        otherwise it scans keys on ``scan_view``.  Chosen once per window,
        when first read, so a row's measurement pays no dispatch."""
        if self.kind == "tree":
            tin, tout = self.tour
            reach, points, dist = self.ray_reach, self.points, self.dist

            def farthest(i, keys):
                t, r, label = tin[i], reach[i], points[i]
                best = 0
                for j in keys:
                    d = r - reach[j] if tin[j] <= t < tout[j] else dist(label, points[j])
                    if d > best:
                        best = d
                return best
            return farthest
        sums = self.signed_sums
        if sums is None:
            coords, dist, _ = self.scan_view()
            unscale = self.unscale

            def farthest(i, keys):
                near = map(coords.__getitem__, keys)
                return unscale(max(map(dist, repeat(coords[i]), near), default=0))
            return farthest

        def farthest(i, keys):
            keys = list(keys)
            best = 0
            if keys:
                for col in sums:
                    vals = list(map(col.__getitem__, keys))
                    c = col[i]
                    best = max(best, max(vals) - c, c - min(vals))
            return best
        return farthest

    @cached_property
    def integer_metric(self):
        """True on grid, tree and lamplighter windows: integer distances."""
        return self.kind in INTEGER_KINDS

    def max_interior_radius(self):
        return max(self.interior_radius) if self.points else 0

    @cached_property
    def deepest(self):
        """The point of largest interior radius, lowest index on ties: the
        centre of a ball window."""
        radii = self.interior_radius
        return self.points[max(range(len(radii)), key=radii.__getitem__)]

    def shell(self, i, r):
        """Indices of the window points at distance exactly r from point i.

        A grid box answers a point whose interior radius is at least r by
        index arithmetic (``deltas``): its whole ambient shell lies in the
        box.  Other grid and lamplighter windows intersect the ambient
        shell with the window, one index lookup per ambient label (correct
        on any subset of points); anything else, trees included, scans the
        window.  Grid shells come in ``_grid_shell_offsets`` order on both
        paths.
        """
        if r == 0:
            return [i]
        if self.strides is not None and self.interior_radius[i] >= r:
            return [i + d for d in self.deltas(r)]
        label = self.points[i]
        get = self.index.get
        if self.kind == "grid":
            found = map(get, (tuple(map(operator.add, label, off))
                              for off in _grid_shell_offsets(len(label), r)))
        elif self.kind == "lamplighter":
            from .lamplighter import translated_shell
            found = map(get, translated_shell(label, r))
        else:
            dist = self.dist
            return [j for j, q in enumerate(self.points) if dist(label, q) == r]
        return [j for j in found if j is not None]

    def deltas(self, r):
        """Index steps of a grid box's ambient shell of radius r, one per
        offset of ``_grid_shell_offsets``, in its order (cached)."""
        steps = self._deltas.get(r)
        if steps is None:
            strides = self.strides
            steps = self._deltas[r] = [
                sum(map(operator.mul, off, strides))
                for off in _grid_shell_offsets(len(strides), r)]
        return steps

    @cached_property
    def up(self):
        get = self.index.get
        return [get(tree_up(p)) for p in self.points]

    @cached_property
    def ray_reach(self):
        up = self.up
        reach = array("i", [-1]) * len(up)
        for i in range(len(up)):
            # walk up to a point already counted (or off the window), then
            # count back down the walk
            walk = []
            while i is not None and reach[i] < 0:
                walk.append(i)
                i = up[i]
            r = -1 if i is None else reach[i]
            for k in reversed(walk):
                r += 1
                reach[k] = r
        return reach

    @cached_property
    def tour(self):
        up, reach = self.up, self.ray_reach
        n = len(up)
        # parents before children; a point's subtree then takes the next
        # size[i] numbers from its parent's free slot (a root's from the
        # forest's), so no child lists are built
        order = sorted(range(n), key=reach.__getitem__)
        size = array("i", [1]) * n
        for i in reversed(order):
            if (u := up[i]) is not None:
                size[u] += size[i]
        tin, free = array("i", [0]) * n, array("i", [0]) * n
        roots = 0
        for i in order:
            if (u := up[i]) is None:
                t = roots
                roots += size[i]
            else:
                t = free[u]
                free[u] += size[i]
            tin[i] = t
            free[i] = t + 1
        for i, t in enumerate(tin):
            size[i] += t    # tout: one past the subtree's last number
        return tin, size

    @cached_property
    def unit_edges(self):
        if self.kind == "tree":
            # one key min * n + max per pair {i, up[i]}, ascending
            n = len(self.points)
            keys = sorted(i * n + u if i < u else u * n + i
                          for i, u in enumerate(self.up) if u is not None)
            return array("i", [k // n for k in keys]), array("i", [k % n for k in keys])
        first, second = array("i"), array("i")
        for i in range(len(self.points)):
            for j in sorted(self.shell(i, 1)):
                if j > i:
                    first.append(i)
                    second.append(j)
        return first, second

    def shell_work(self, r):
        """How many ambient labels one ``shell(i, r)`` accounts for: the
        ambient sphere on grid and lamplighter windows (the index steps of
        a box's interior points, the lookups elsewhere), the window on
        trees; None past the radius the lamplighter enumerates and off
        integer metrics."""
        if self.kind == "grid":
            return len(_grid_shell_offsets(len(self.points[0]), r))
        if self.kind == "lamplighter":
            from .lamplighter import SHELL_CAP, identity_shells
            return len(identity_shells(r)[r]) if r <= SHELL_CAP else None
        return len(self) if self.integer_metric else None

    def closed_ball(self, i, r):
        """Indices of the window points at distance at most r from point i:
        shells 0..r on integer metrics, a scan of the window on any other."""
        if not self.integer_metric:
            label, dist = self.points[i], self.dist
            return [j for j, q in enumerate(self.points) if dist(label, q) <= r]
        out = []
        for s in range(r + 1):
            out.extend(self.shell(i, s))
        return out

    def subspace(self, labels, window_tag=None):
        """Restriction to a subset of points, with the induced metric."""
        labels = list(labels)
        return FiniteMetricSpace(
            labels, self.dist,
            window_tag or f"{self.window_tag}|subspace",
            [self.radius_of(p) for p in labels],
            geodesic=False, kind=self.kind)


# ---------------------------------------------------------------------------
# Z^k box windows and rational point sets


def l1_dist(a, b):
    return sum(map(abs, map(operator.sub, a, b)))


def clear_denominators(values):
    """(D, numerators): the least common denominator D of rational values
    (ints or Fractions) and the integers value * D, in order."""
    dens = [v.denominator for v in values]
    D = math.lcm(*set(dens))
    if D == 1:
        return 1, [v.numerator for v in values]
    return D, [v.numerator * (D // d) for v, d in zip(values, dens)]


def _grid_shell_offsets(k, r):
    """Integer vectors of l1 norm exactly r in k coordinates, enumerated
    sparsely (positions of nonzero entries, compositions, signs)."""
    key = (k, r)
    if key not in _GRID_SHELL_CACHE:
        offs = []

        def gen(remaining, current):
            if remaining == 0:
                offs.append(tuple(current) + (0,) * (k - len(current)))
                return
            if len(current) == k:
                return
            gen(remaining, current + [0])
            for mag in range(1, remaining + 1):
                for s in (mag, -mag):
                    gen(remaining - mag, current + [s])

        gen(r, [])
        _GRID_SHELL_CACHE[key] = offs
    return _GRID_SHELL_CACHE[key]


def grid_space(k, half_width):
    """Box {-half_width..half_width}^k with the word (= l1) metric."""
    if k < 1 or half_width < 1:
        raise ValueError("need k >= 1 and half_width >= 1")
    side = 2 * half_width + 1
    guard_cap(side ** k, f"grid_space(k={k}, half_width={half_width}) points")
    points = [tuple(p) for p in itertools.product(range(-half_width, half_width + 1), repeat=k)]

    radii = [half_width - max(abs(c) for c in p) for p in points]
    box = FiniteMetricSpace(
        points, l1_dist,
        f"Z^{k} box, half_width={half_width}",
        radii, geodesic=True, kind="grid")
    # product order: the last coordinate steps fastest
    box.strides = tuple(side ** (k - 1 - m) for m in range(k))
    return box


def lattice_window(points, k, tag):
    """Sparse set of Z^k points with the l1 metric.

    Interior radii are honest ambient radii: r such that the full ambient
    l1-ball of radius r around the point is present.  For generic sparse
    sets this is 0, which simply marks every point as boundary.  Raises
    ValueError on a non-integer coordinate: the window is labelled a grid,
    whose shells and balls step by integer offsets.
    """
    pts = [tuple(p) for p in points]
    bad = next((p for p in pts if not all(isinstance(c, int) for c in p)), None)
    if bad is not None:
        raise ValueError(f"lattice_window needs integer coordinates, got {bad}")
    present = set(pts)
    radii = []
    for p in pts:
        r = 0
        while True:
            shell = _grid_shell_offsets(k, r + 1)
            if all(tuple(a + b for a, b in zip(p, off)) in present for off in shell):
                r += 1
            else:
                break
        radii.append(r)
    return FiniteMetricSpace(pts, l1_dist, tag, radii, geodesic=False, kind="grid")


class _RationalWindow(FiniteMetricSpace):
    def __init__(self, points, interior_radius, tag):
        super().__init__(points, l1_dist, tag, interior_radius, kind="rational")
        self.denominator, flat = clear_denominators(
            [c for p in self.points for c in p])
        it = iter(flat)
        self.numerators = [tuple(itertools.islice(it, len(p))) for p in self.points]

    def dist_i(self, i, j):
        return Fraction(l1_dist(self.numerators[i], self.numerators[j]),
                        self.denominator)

    def scan_view(self):
        return self.numerators, l1_dist, self.denominator

    def unscale(self, v):
        return Fraction(v, self.denominator)


def rational_window(points, interior_radius, tag):
    """Finite set of rational points (tuples of ints and Fractions) with
    the l1 metric.

    The labels are cleared once (``clear_denominators``, shared with the
    lattice decode) to one denominator D and integer numerator tuples.
    dist_i is Fraction(l1 of the numerators, D), and the scans of
    ``scan_view`` (complement distances, open balls, diameters,
    retractions) compare numerators and build one Fraction per result;
    dist on labels stays l1_dist.
    """
    return _RationalWindow(points, interior_radius, tag)


# ---------------------------------------------------------------------------
# Truncated regular trees with a marked end
#
# Tree nodes are labeled by their path from the root: () is the root and
# (c0, c1, ...) descends child by child.  The marked direction to infinity
# runs up through the ancestors and then along a spine attached above the
# root; spine nodes are labeled by negative integers -1, -2, ...


def tree_dist(a, b):
    if isinstance(a, int):
        if isinstance(b, int):
            return abs(a - b)
        return -a + len(b)
    if isinstance(b, int):
        return len(a) + (-b)
    n, m = len(a), len(b)
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return n + m - 2 * common


def tree_up(label):
    """The label one step from label toward the marked end."""
    if isinstance(label, int):
        return label - 1
    return label[:-1] if label else -1


def ray(space, i, length):
    """Indices of the tree window's points 0, 1, ..., length steps from
    point i toward the marked end, or None if the ray leaves the window."""
    up = space.up
    out = [i]
    for _ in range(length):
        i = up[i]
        if i is None:
            return None
        out.append(i)
    return out


def ray_meet(space, i, j, length):
    """(a, b): the steps from points i and j of a tree window toward the
    marked end to the first point their rays share, or None once either
    count passes length or a ray leaves the window first.  It walks ``up``
    from i until i is an ancestor of j (or j itself, ``tour``): the first
    such point is the first one j's ray holds, b = reach[j] - reach[i]
    steps from j."""
    up, reach = space.up, space.ray_reach
    tin, tout = space.tour
    t = tin[j]
    a = 0
    while not tin[i] <= t < tout[i]:
        if a == length or (i := up[i]) is None:
            return None
        a += 1
    b = reach[j] - reach[i]
    return None if b > length else (a, b)


def ray_domain(space, length):
    """Indices of the tree window's points whose ray toward the marked end
    stays inside for the given length: those of ``ray_reach`` at least
    length."""
    # the index's values: the point indices in order, as existing int objects
    return [i for i, r in zip(space.index.values(), space.ray_reach) if r >= length]


def tree_ball(valence, depth):
    """Rooted (valence)-regular tree truncated at depth, plus a spine of
    2 * depth points toward the marked end.

    Every internal vertex has full valence in the ambient tree; the window
    keeps the root's subtree to the given depth and the spine path, so the
    only ambient neighbors missing are the deep descendants and the side
    subtrees hanging off the spine.  The ray from a node toward the marked
    end stays inside for its own depth plus the spine's 2 * depth steps:
    the root's 2 * depth and a leaf's 3 * depth are the support limits of
    the ``embed`` and ``tree-embed`` experiments.
    """
    if valence < 3 or depth < 1:
        raise ValueError("need valence >= 3 and depth >= 1")
    spine_len = 2 * depth
    branching = valence - 1
    count = sum(branching ** d for d in range(depth + 1)) + spine_len
    guard_cap(count, f"tree_ball(valence={valence}, depth={depth}) points")

    points = [-j for j in range(spine_len, 0, -1)]
    level = [()]
    points.append(())
    for _ in range(depth):
        nxt = []
        for p in level:
            for c in range(branching):
                q = p + (c,)
                nxt.append(q)
        points.extend(nxt)
        level = nxt

    radii = []
    for p in points:
        if isinstance(p, int):
            radii.append(0)  # side subtrees of the spine are not in the window
        else:
            radii.append(min(depth - len(p), len(p) + 1))
    return FiniteMetricSpace(
        points, tree_dist,
        f"{valence}-regular tree ball, depth={depth}, spine={spine_len}",
        radii, geodesic=True, kind="tree")
