"""Maps into the unit sphere of l^p over a window, and their statistics.

A kernel assigns every point x a finitely supported nonnegative function
of unit l^p norm.  Its two statistics are the support radius (largest
distance at which a row is nonzero) and the best Lipschitz constant of
the map into l^p, measured as the supremum of difference-norm over
distance.

The supremum is exact on every window, over the pairs of a policy that
the window picks (``PairPlan``): unit edges where geodesics through
eligible points join every two of them (a pair quotient is then an
average of edge quotients); on any other integer metric, shells r = 1,
2, ... around each eligible point for as long as they cost less than a
sweep of the eligible points, then the pairs farther apart; all pairs
elsewhere.  Every row has norm within e = norm_error of 1, so no pair can
exceed 2(1 + e)/d: a pair whose bound falls below the running maximum is
counted as bounded instead of evaluated, and a scan stops at the first
distance whose bound does.

Tree kernels put a profile on the ray toward the marked end and are
defined on the window's ray domain (``spaces.ray_domain``).  A row zips
the ray's indices (``spaces.ray``) with the profile; its support radius
is measured, not read from the construction, so support checks test the
walk.  The ``profile`` experiment measures their epsilon profile.  Two
rays coincide from their first shared point on, reached in (a, b) steps
from i and j (``spaces.ray_meet``), and every row holds the same values,
so ``diff_norm`` of the rows at i and j is a function of (a, b): entry d
of one row meets entry d - a + b of the other, in the same order.

Work that does not depend on p is done once and shared:

- the partition-of-unity kernels of one cover share one cache of row
  support radii, because their rows have the same supports for every p;
- on a grid window of at most 8 coordinates, each row's radius is read
  from the window's signed-sum columns (``space.signed_sums``, built once
  per window and shared with every cover's mesh) through
  ``space.farthest``: per column, the extremes over the row's own keys
  against the point's entry, with no ``dist`` call;
- the ray kernels of one length on one tree window share one cache of row
  support radii (``space.ray_radii``), whatever their p or profile, since
  their rows are one ``ray`` walk; each row is measured whole by
  ``space.farthest``, so each (point, ray point) pair is measured once
  per ray length: an ancestor key from the window's tour, any other key
  by the metric on labels;
- each cover's weights (``cover_weights``: complement distances read by
  ``covers.boundary_distance``, the walk of the Lebesgue scan) are
  computed once per cover, and their p-th powers once per kernel, that is
  per (cover, p);
- each cover's translation classes (``cover_classes``: points whose owner
  sets have the same index-offset shape and weights) are computed once
  per cover; a pou kernel builds one row per class and shifts it to the
  other members, measures one row norm per class in each ``norm_error``
  call, and computes one pair quotient per (class of i, class of j,
  j - i, d), each the same floats summed in the same order as the direct
  computation; support radii are not shared by class but measured row by
  row, so support checks test every shifted row's keys;
- the rows of a ray kernel share one value list (``Kernel.ray_values``);
  each ``norm_error`` call measures the list's norm once and reads it for
  every row whose values equal the list in order, and measures any other
  row's own norm, so a ray walk that stops early or repeats an index still
  shows; ``pair_quotient`` computes one diff_norm per ``spaces.ray_meet``
  key (a, b), or None for rows apart, and divides it by each pair's
  distance: on a tree window's unit edges, at most two diff_norms per
  kernel.

Before building any row, a kernel guards its row entries with the size
cap (``errors.guard_cap``): sum(|s|^2) over a cover's sets bounds a pou
kernel's, since a row holds its point's owner sets, and a ray kernel's
are its domain's size times (length + 1).

Rows and quotients are kept only while something reads them:
``kernel_stats`` measures through a scratch row cache and quotient memo
and lets go of what it built, so a later reader (an embedding reads the
rows of its sampled points only) rebuilds the rows it needs.  Every row is
a pure function of its kernel, so a rebuilt row equals the measured one.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, repeat, starmap
from operator import eq

from .covers import boundary_distance
from .errors import ContractViolation, guard_cap
from .spaces import ray_meet

NORM_TOL = 1e-9
# A pair is skipped only when its bound 2(1 + e)/d falls below the running
# maximum by this relative margin.  The computed quotient of an n-term
# power sum is off by about n * 2^-53 relative, far below the margin, so a
# skipped pair could not have raised the maximum.
PRUNE_MARGIN = 1e-9


def p_norm(values, p):
    if p == 1:
        return float(sum(abs(v) for v in values))
    if p == 2:
        return float(sum(float(v) * float(v) for v in values)) ** 0.5
    return float(sum(abs(float(v)) ** p for v in values)) ** (1.0 / p)


def diff_norm(row_a, row_b, p):
    """l^p norm of row_a - row_b, summed in a fixed order: row_a's entries
    in row order, then row_b's remaining entries in row order.  Exact on
    rational rows at p = 1."""
    acc = 0
    for key, va in row_a.items():
        vb = row_b.get(key)
        d = abs(va - vb) if vb is not None else abs(va)
        acc += d if p == 1 else d ** p
    for key, vb in row_b.items():
        if key not in row_a:
            d = abs(vb)
            acc += d if p == 1 else d ** p
    return acc if p == 1 else acc ** (1.0 / p)


class Kernel:
    """Sparse unit-sphere-valued map on a window.

    rows are dicts point-index -> value, built lazily through row_fn and
    cached until ``kernel_stats``, which drops the rows it built.  Values
    are floats, or exact rationals in exact p = 1 constructions.
    domain_indices restricts where rows are defined (support may still use
    the whole window); None means everywhere.  row checks it on a cache
    miss, by bisecting the sorted indices.
    Each row's support radius is measured once and cached in radii, a dict
    point-index -> radius that kernels whose rows share their supports may
    share (None: a cache of this kernel's own).
    ray_length and ray_values are set on a ray kernel (``_ray_kernel``),
    whose row at i zips ``spaces.ray(base, i, ray_length)`` with the value
    list ray_values: norm_error measures the list's norm once per call and
    reads it for every row whose values equal the list in order, and
    pair_quotient keeps one diff_norm per ``spaces.ray_meet`` key in
    _quotients.
    classes, when given, is a cover's ``cover_classes`` (cls, reps, ints):
    the row at i, in a class whose first point rep is not i, is the row at
    rep (read through the row cache) with every key shifted by i - rep,
    norm_error measures one row norm per class in each call, and
    pair_quotient keeps one diff_norm per (class of i, class of j, j - i,
    d) in _quotients.  A point of class -1 is alone in its class: its row
    comes from row_fn, its norm is its own, and its pairs skip the memo.
    Support radii are measured row by row whatever the classes.
    """

    ray_length = None
    ray_values = None

    def __init__(self, base, p, row_fn, name="", domain_indices=None,
                 radii=None, classes=None):
        self.base = base
        self.p = p
        self.row_fn = row_fn
        self.name = name
        self.domain_indices = (list(range(len(base))) if domain_indices is None
                               else sorted(domain_indices))
        self._rows = {}
        self._radii = {} if radii is None else radii
        self._classes = classes
        self._quotients = {}

    def row(self, i):
        row = self._rows.get(i)
        if row is None:
            domain = self.domain_indices
            k = bisect_left(domain, i)
            if k == len(domain) or domain[k] != i:
                where = self.base.points[i] if 0 <= i < len(self.base) else f"index {i}"
                raise KeyError(f"kernel not defined at {where}")
            classes = self._classes
            if classes is not None and (c := classes[0][i]) >= 0 and (
                    rep := classes[1][c]) != i:
                t, ints = i - rep, classes[2]
                row = {ints[z + t]: v for z, v in self.row(rep).items()}
            else:
                row = self.row_fn(i)
            self._rows[i] = row
        return row

    def support_radius(self, indices=None):
        """Largest distance from a point to its row's support, over indices
        (default: the domain), and the first point index attaining it
        (None over no indices).

        Each row's radius is ``space.farthest`` over all of the row's keys:
        the extremes of the signed-sum columns on a grid window that keeps
        them; on a tree window, depth differences for the keys its tour
        shows to be ancestors of the point and the metric on labels for
        the others; a distance scan on any other."""
        radii, space = self._radii, self.base
        worst, at = 0, None
        for i in (indices if indices is not None else self.domain_indices):
            r = radii.get(i)
            if r is None:
                r = radii[i] = space.farthest(i, self.row(i))
            if at is None or r > worst:
                worst, at = r, i
        return worst, at

    def norm_error(self, indices=None):
        """Largest |row norm - 1| over indices (default: the domain), and
        the first point index attaining it (None over no indices).

        With classes, a point of class c >= 0 reads the error of the first
        point of c that the call met: its row holds the same values in the
        same order, so p_norm returns the same float.  On a ray kernel a
        row whose values equal ray_values in order reads the error of the
        list itself, measured once per call, for the same reason; a row
        that differs (a ray that stops early or repeats an index) has its
        own norm measured.  So does a point of class -1, and every point
        of any other kernel."""
        cls = None if self._classes is None else self._classes[0]
        values, p = self.ray_values, self.p
        shared = None if values is None else abs(p_norm(values, p) - 1.0)
        errors = {}
        worst, at = 0.0, None
        for i in (indices if indices is not None else self.domain_indices):
            c = -1 if cls is None else cls[i]
            err = errors.get(c)
            if err is None:
                row = self.row(i).values()
                # compared in place: a list of each row's values, built
                # while the rows are alive, raised the bench's peak RSS
                if (shared is not None and len(row) == len(values)
                        and all(map(eq, row, values))):
                    err = shared
                else:
                    err = abs(p_norm(row, p) - 1.0)
                if c >= 0:
                    errors[c] = err
            if at is None or err > worst:
                worst, at = err, i
        return worst, at

    def pair_quotient(self, i, j, d):
        """diff_norm(row(i), row(j), p) / d, where d = dist(i, j) is
        already measured.  A pair with a memo key reads and fills the memo
        of diff_norms: on a ray kernel the key is ``spaces.ray_meet(base,
        i, j, ray_length)``, since the rows hold one value list on rays
        that coincide from the meeting point, so diff_norm sums the same
        floats in the same order for every pair of one key, and the key
        None (rows apart) sums both lists whole.  With classes, a pair
        whose points both lie in classes of several points has the key
        (class of i, class of j, j - i, d): a pair (i + t, j + t) of the
        same classes has both rows shifted by t, so diff_norm sums the same
        floats in the same order.  Any other pair is computed directly."""
        if d == 0:
            raise ValueError("identical points")
        length, classes = self.ray_length, self._classes
        if length is not None:
            key = ray_meet(self.base, i, j, length)
        elif classes is not None and (ci := classes[0][i]) >= 0 and (
                cj := classes[0][j]) >= 0:
            key = (ci, cj, j - i, d)
        else:
            return diff_norm(self.row(i), self.row(j), self.p) / float(d)
        norm = self._quotients.get(key)
        if norm is None:
            norm = self._quotients[key] = diff_norm(self.row(i), self.row(j), self.p)
        return norm / float(d)


@dataclass
class KernelStats:
    """Measured statistics of a kernel on its eligible points.

    Every statistic is exact.  Each keeps the witness its measurement
    found: support_point and norm_error_point are the first eligible points
    whose rows attain support_radius and norm_error, and argmax_pair the
    first pair attaining lipschitz in the policy's visiting order.  policy
    names the window's pair policy
    ("edges", "shells" or "all-pairs", see ``PairPlan``), whose pairs split
    into pairs_evaluated (pair_quotient calls) and pairs_bounded (never
    evaluated, because 2(1 + norm_error)/d fell below the running maximum).
    """
    support_radius: int
    support_point: object
    lipschitz: float
    argmax_pair: tuple
    policy: str
    pairs_evaluated: int
    pairs_bounded: int
    norm_error: float
    norm_error_point: object


def _convex(space, eligible, edges):
    """Every two eligible points are joined by a geodesic through eligible
    points: on a geodesic grid box they fill a sub-box of interior radius,
    on a geodesic tree they are connected (one edge fewer than points)."""
    if space.kind == "grid":
        radii = space.interior_radius
        least = min((radii[i] for i in eligible), default=0)
        return sum(r >= least for r in radii) == len(eligible)
    return space.kind == "tree" and edges == len(eligible) - 1


class PairPlan:
    """The pairs of the window's pair policy, in visiting order, with their
    distances; key is the tuple of eligible point indices, ascending.
    kernel_stats builds one plan per scan.

    - "edges" where ``_convex`` holds: the unit edges between eligible
      points, whose largest quotient is the supremum;
    - "shells" on any other integer metric whose shells cost less than a
      sweep: the pairs at distance r = 1, 2, ..., top from ``space.shell``,
      each once, a radius collected when the scan reaches it; then the
      pairs farther apart, swept as in "all-pairs";
    - "all-pairs" elsewhere: every pair, in ``combinations`` order, with
      its distance as the float the quotient divides by, measured as the
      sweep reaches it.

    Within a radius pairs come in index order (i, j), i < j; radius 1 is
    the window's ``unit_edges`` (collected once per window) between
    eligible points.  len() counts the pairs the policy accounts for (the
    edges, or every pair).
    """

    def __init__(self, space, key):
        self.space = space
        self.key = key
        n = len(key)
        self.size = n * (n - 1) // 2
        self._eligible = set(key)
        self._edges = None          # shell 1, filtered to test _convex
        self.top = 0
        if space.integer_metric and space.geodesic:
            self._edges = self._shell(1)
            self.top = 1
            edges = len(self._edges[0])
            if _convex(space, key, edges):
                self.policy, self.size = "edges", edges
                return
        # shells up to the largest radius r at which they still cost less,
        # around each of the n points, than sweeping the others: the shell
        # work (space.shell_work) for radii 1..r adds up to fewer than n
        top = work = 0
        while n > 1 and (w := space.shell_work(top + 1)) is not None and work + w < n:
            work += w
            top += 1
        self.top = max(top, self.top)
        self.policy = "shells" if self.top else "all-pairs"

    def _shell(self, r):
        """(first, second): the pairs of eligible points at distance r; at
        r = 1 the window's ``unit_edges`` between eligible points."""
        space, eligible = self.space, self._eligible
        if r == 1:
            first, second = space.unit_edges
            keep = [i in eligible and j in eligible for i, j in zip(first, second)]
            return array("i", compress(first, keep)), array("i", compress(second, keep))
        first, second = array("i"), array("i")
        for i in self.key:
            for j in sorted(space.shell(i, r)):
                if j > i and j in eligible:
                    first.append(i)
                    second.append(j)
        return first, second

    def __len__(self):
        return self.size

    def scan(self, reach):
        """((i, j), distance) in visiting order: radius by radius up to top,
        then the farther pairs.  The scan stops before the first distance r
        with reach(r) false, or once len() pairs have been visited."""
        visited, r = 0, 1
        while r <= self.top and visited < self.size and reach(r):
            first, second = (self._edges if r == 1 and self._edges is not None
                             else self._shell(r))
            visited += len(first)
            yield from zip(zip(first, second), repeat(r))
            r += 1
        if visited < self.size and reach(r):
            top, key = self.top, self.key
            dists = map(float, starmap(self.space.dist_i, combinations(key, 2)))
            for pair, d in zip(combinations(key, 2), dists):
                if d > top:
                    yield pair, d


def kernel_stats(kernel, min_interior=0, *, seed=None, sample_pairs=None):
    """Measured support radius and exact Lipschitz constant.

    min_interior restricts both statistics to points whose interior radius
    reaches that level (used by partition-of-unity bounds, which hold on
    the ambient space and therefore only sufficiently far from the window
    boundary).  seed and sample_pairs are accepted and ignored: no
    measurement samples.

    The rows and pair quotients are read through scratch copies of the
    kernel's row cache and quotient memo: what they held before the call
    stays, and what the call added is dropped.  The support radii stay in
    the kernel's radius cache.
    """
    space = kernel.base
    eligible = [i for i in kernel.domain_indices
                if space.interior_radius[i] >= min_interior]
    kept, kept_quotients = kernel._rows, kernel._quotients
    kernel._rows, kernel._quotients = dict(kept), dict(kept_quotients)
    try:
        sup_radius, sup_at = kernel.support_radius(eligible)
        norm_error, err_at = kernel.norm_error(eligible)
        cap = 2.0 * (1.0 + norm_error)
        plan = PairPlan(space, tuple(eligible))

        # the strict > keeps the first maximum, so a pair whose bound falls
        # below floor cannot change lipschitz or argmax_pair
        best = floor = 0.0
        arg = None
        evaluated = 0
        for (i, j), d in plan.scan(lambda r: cap / r >= floor):
            if cap / d < floor:
                continue
            q = kernel.pair_quotient(i, j, d)
            evaluated += 1
            if q > best:
                best = q
                floor = best * (1.0 - PRUNE_MARGIN)
                arg = (space.points[i], space.points[j])
    finally:
        kernel._rows, kernel._quotients = kept, kept_quotients

    def label(i):
        return None if i is None else space.points[i]

    return KernelStats(
        support_radius=sup_radius, support_point=label(sup_at), lipschitz=best,
        argmax_pair=arg, policy=plan.policy, pairs_evaluated=evaluated,
        pairs_bounded=len(plan) - evaluated, norm_error=norm_error,
        norm_error_point=label(err_at))


# ---------------------------------------------------------------------------
# Partition-of-unity kernels from covers


def cover_weights(cover):
    """Per set: dict i -> distance-to-complement weight, capped by the
    ambient window margin (interior radius + 1).

    The weights do not depend on p, so they are computed once per cover
    and cached on it.
    """
    if cover._weights is None:
        space = cover.space
        cover._weights = [
            {i: boundary_distance(space, i, (cover.frozen[sid],),
                                  space.interior_radius[i] + 1) for i in s}
            for sid, s in enumerate(cover.sets)]
    return cover._weights


def cover_classes(cover):
    """(cls, reps, ints) of the cover's translation classes, or None when
    no two points share a class.

    A pou row at i reads only i's owner sets in membership order, each
    set's members as index offsets from its first member, and each set's
    weights in set order.  Each set gets a shape id (its offsets from s[0]
    and its weights), and each point the key of (shape id, s[0] - i) over
    its owners.  Two points with one key have rows of the same values in
    the same order, the keys shifted by the difference of the points.
    This is index arithmetic alone, so it holds on every window.

    cls is point -> class id, -1 for a point alone in its class (and for
    an uncovered point, whose row raises); reps[c] is the first point of
    class c; ints is one list(range(n)), so shifted rows share their key
    objects.  Computed once per cover and cached on it.
    """
    if cover._classes is None:
        sets, shapes = cover.sets, {}
        shape_of = [shapes.setdefault(
            (tuple(z - s[0] for z in s), tuple(w.values())), len(shapes))
            for s, w in zip(sets, cover_weights(cover))]
        keys = [tuple((shape_of[sid], sets[sid][0] - i) for sid in owners)
                for i, owners in enumerate(cover.membership())]
        count = Counter(keys)
        ids, reps, cls = {}, [], []
        for i, key in enumerate(keys):
            c = -1 if not key or count[key] == 1 else ids.setdefault(key, len(ids))
            if c == len(reps):
                reps.append(i)
            cls.append(c)
        cover._classes = (cls, reps, list(range(len(keys)))) if reps else ()
    return cover._classes or None


def pou_kernel(cover, p, exact=False):
    """Partition-of-unity kernel of a cover.

    Each set contributes the distance-to-complement weight, capped by the
    ambient window margin (interior radius + 1) so that window truncation
    never inflates a weight (``cover_weights``, shared by every p).  Rows
    are exactly unit norm by construction; a row is supported on z exactly
    when some set contains both points, whatever p and exact are, so every
    pou kernel of the cover shares the cover's support-radius cache.
    With exact=True (p = 1 only) all values are rationals.  Rows and
    pair quotients are shared across the cover's translation classes
    (``cover_classes``).
    """
    if exact and p != 1:
        raise ValueError("exact mode is the p=1 fast path")
    name = f"pou({cover.name}, p={p})"
    # a row holds the members of each of its point's owner sets, so the
    # rows hold at most sum(|s|^2) entries over the sets
    guard_cap(sum(len(s) ** 2 for s in cover.sets), f"{name} row entries")
    space = cover.space
    mem = cover.membership()
    psi = cover_weights(cover)
    num = Fraction if exact else float
    # per set, num(w) ** p in the set's weight order, and the p-th power of
    # the set's norm
    powers = [[num(w) ** p for w in vals.values()] for vals in psi]
    norm_p = [sum(ws) if exact else p_norm(vals.values(), p) ** p
              for ws, vals in zip(powers, psi)]

    def row_fn(i):
        owners = mem[i]
        if not owners:
            raise ContractViolation(f"point {space.points[i]} uncovered",
                                    witness=space.points[i])
        weights = [num(psi[sid][i]) ** p for sid in owners]
        total_p = sum(weights)
        out = {}
        for sid, w_p in zip(owners, weights):
            coef = w_p / total_p
            set_norm_p = norm_p[sid]
            for z, wz_p in zip(psi[sid], powers[sid]):
                out[z] = out.get(z, 0) + coef * wz_p / set_norm_p
        if p == 1:
            return out
        return {z: v ** (1.0 / p) for z, v in out.items()}

    return Kernel(space, p, row_fn, name=name, radii=cover._radii,
                  classes=cover_classes(cover))


def pou_lipschitz_bound(stats, p=1):
    """The advertised partition-of-unity bound 2 (2 m^2)^(1/p) / L of a
    cover with multiplicity m and Lebesgue level L."""
    m = stats.multiplicity
    return 2.0 * (2.0 * m * m) ** (1.0 / p) / float(stats.lebesgue)


# ---------------------------------------------------------------------------
# Kernels on trees, supported on rays toward the marked end


def tent_profile(S):
    """Value at distance d along the ray: S + 2 - |S - 2d|, for 0 <= d <= S."""
    return [S + 2 - abs(S - 2 * d) for d in range(S + 1)]


def _ray_kernel(tree, p, values, name):
    """Kernel on a tree window whose row at a node puts values[d] on the
    ray point at distance d, defined on the sub-window of nodes whose ray
    of length len(values) - 1 stays inside.  Its support radii are the
    window's radius dict at that length, shared by every ray kernel of the
    length."""
    from .spaces import ray, ray_domain

    length = len(values) - 1
    domain = ray_domain(tree, length)
    if not domain:
        raise ValueError(f"window too shallow for rays of length {length}")
    guard_cap(len(domain) * (length + 1), f"{name} row entries")

    def row_fn(i):
        return dict(zip(ray(tree, i, length), values))

    kernel = Kernel(tree, p, row_fn, name=name, domain_indices=domain,
                    radii=tree.ray_radii.setdefault(length, {}))
    kernel.ray_length, kernel.ray_values = length, values
    return kernel


def tree_kernel_tent(tree, S, p):
    """Tent-profile kernel: supported on the first S+1 ray points.

    Defined on the sub-window of nodes whose ray of length S stays inside.
    The unnormalized profile has p-norm exceeding (S^(p+1)/(p+1))^(1/p),
    and adjacent rows differ in p-norm by exactly (2^p (2 floor(S/2) + 2))^(1/p).
    Every row shares one list of normalized profile values.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    profile = tent_profile(S)
    norm = p_norm(profile, p)
    return _ray_kernel(tree, p, [v / norm for v in profile], f"tent S={S} p={p}")


def tent_norm_floor(S, p):
    """(S^(p+1) / (p+1))^(1/p), the advertised lower bound for the
    unnormalized tent profile norm."""
    return (S ** (p + 1) / (p + 1)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# The radial sphere homeomorphism between l^q and l^p


def mazur_map(vec, q, p):
    """Send a unit vector of l^q to l^p coordinatewise: v -> |v|^(q/p-1) v."""
    norm = p_norm(vec, q)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"input must be a unit vector in l^{q}, norm {norm}")
    e = q / p
    return [(-1.0 if v < 0 else 1.0) * abs(float(v)) ** e for v in vec]


def mazur_pairs_check(dim, q, p, n_pairs, seed=0):
    """Seeded sample of unit-vector pairs; returns the worst ratio
    ||Mf - Mg||_p / ||f - g||_q (expected at most q/p for p <= q) and the
    number of the draw that attains it (None when no pair counted)."""
    rng = random.Random(seed)
    worst, worst_draw = 0.0, None
    for draw in range(n_pairs):
        f = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        g = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        nf, ng = p_norm(f, q), p_norm(g, q)
        f = [v / nf for v in f]
        g = [v / ng for v in g]
        mf, mg = mazur_map(f, q, p), mazur_map(g, q, p)
        dq = p_norm([a - b for a, b in zip(f, g)], q)
        if dq < 1e-12:
            continue
        dp = p_norm([a - b for a, b in zip(mf, mg)], p)
        if dp / dq > worst:
            worst, worst_draw = dp / dq, draw
    return worst, worst_draw


# ---------------------------------------------------------------------------
# Transfer along a map into a larger window


def pullback_kernel(f, domain, kernel):
    """Transfer a kernel on the target window back along an injective map.

    A retraction sends every target point to a nearest image point; the
    transferred row at x collects, over each fiber of the retraction, the
    p-mass of the original row at f(x).
    """
    target = kernel.base
    p = kernel.p
    image = {}
    for x in domain.points:
        y = f(x)
        if y in image:
            raise ValueError("map must be injective on the window")
        image[y] = x
    image_ids = sorted(target.index[y] for y in image)
    coords, dist, _ = target.scan_view()
    retract = {}
    for j, y in enumerate(target.points):
        if y in image:
            retract[j] = target.index[y]
        else:
            a = coords[j]
            retract[j] = min(image_ids, key=lambda i: dist(a, coords[i]))
    domain_of_anchor = {target.index[y]: domain.index[x] for y, x in image.items()}

    def row_fn(i):
        x = domain.points[i]
        base_row = kernel.row(target.index[f(x)])
        acc = {}
        for j, v in base_row.items():
            anchor = retract[j]
            mass = abs(v) if p == 1 else abs(float(v)) ** p
            acc[anchor] = acc.get(anchor, 0) + mass
        out = {}
        for anchor, mass in acc.items():
            if mass != 0:
                w_idx = domain_of_anchor[anchor]
                out[w_idx] = mass if p == 1 else float(mass) ** (1.0 / p)
        return out

    return Kernel(domain, p, row_fn, name=f"pullback({kernel.name})")
