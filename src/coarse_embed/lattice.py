"""Exact rational geometry of the zero-sum lattice cover.

Ambient space: the hyperplane of vectors in R^n with coordinate sum 0,
normed by the l1 norm.  The integer points of the hyperplane form a
lattice; adding the n glue shifts yields a finer lattice whose Voronoi
cell V is a permutohedron, cut out by the inequalities

    gap(x, I) <= 1/2     for every proper subset I,

where the split-average gap(x, I) is the difference between the
coordinate average over I and over its complement.  Maximizing the gap
over subsets of fixed size is achieved by the largest coordinates, so
membership reduces to n-1 sorted-prefix checks.

Thickening.  Covers need the cells enlarged by a small margin tau, with
0 < tau <= 1/n.  The enlargement used here relaxes each defining
inequality by tau times the l1 operator norm of its functional
("functional thickening").  It contains the open l1 tau-neighborhood of
V and is contained in a slightly scaled copy of V, so it inherits every
property the cover needs: the translates still cover (they contain the
closed cells), translates within one shift family stay disjoint, and any
point of a closed cell keeps an l1 ball of radius tau inside the enlarged
cell.  Unlike the exact l1 neighborhood, membership stays a finite list
of rational comparisons.

Decoding.  membership lists the (family, lattice point) pairs whose
enlarged scaled cell holds a point, in the sorted style of the A_n*
quantizer (Conway & Sloane, "Fast quantizing and decoding algorithms for
lattice quantizers and codes", IEEE Trans. IT 28, 1982; SPLAG ch. 20).
The point is cleared to integers X_j over one denominator D (by
spaces.clear_denominators), and the residues r_j = X_j mod D are sorted
once and listed twice, the second copy lifted by D.  Family i subtracts
the glue shift, which rotates every residue by i D / n.  A coordinate
lies within the band b = (n-1)/(2n) + tau/2 of at most one of its floor
and ceiling, because tau <= 1/n keeps b at or below 1/2, so its rounding
is forced: the coordinates that must round down, those that can round
neither way and those that must round up each form a circular interval
of the residues, one run of the doubled list.  The zero-sum condition
then holds exactly when no coordinate lies in the middle run and the
run below the family's lower threshold ends at position i + T, where
T = n - sum r_j / D lies in [1, n].  So each family is screened by two
comparisons at the fixed positions i + T - 1 and i + T of the doubled
list (the lemma is spelled out in membership), and only the families
that pass build their one lattice point and run the sorted-prefix cell
check.  The spec-only integers (offset numerators, band, family and
prefix thresholds) are computed once per spec and point denominator; no
Fraction is built per point.  Grid points are decoded as
integer vectors against the spec at twice its scale (pullback_grid_cover),
so their denominator is 1.  cell_contains runs the same prefix test on
one cleared vector.  cell_contains_bruteforce (every subset inequality)
is the cell test's oracle; membership's oracle, a per-family rounding in
Fraction arithmetic, and the gap itself live in tests/test_lattice.py.

Box covers.  zk_cover also tries one cover that does not come from the
lattice: cubes of side 2L-2 tiling Z^2, each grown by its closed l1
(L-1)-neighbourhood.  It certifies Lebesgue level L with multiplicity 4
and mesh 6L-8, which meets the plane bound 5L for 2 <= L <= 8; the
lattice pullbacks miss that bound at L = 3 to 9 on an 81x81 window.  Its multiplicity 2^k exceeds
the budget 2k for k >= 3, so it is a plane-only candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .covers import cover_stats, grouped_cover, lebesgue_condition
from .errors import ContractViolation, CoverageError
from .spaces import clear_denominators


def default_thickening(n):
    """Half the guaranteed in-family separation of the cell translates."""
    return Fraction(1, 2 * (n - 1))


def vertex_profile(n):
    """A cell vertex: (1-n, 3-n, ..., n-1) / (2n)."""
    return tuple(Fraction(2 * j + 1 - n, 2 * n) for j in range(n))


@dataclass(frozen=True)
class LatticeCoverSpec:
    """Shape of a thickened lattice cover of the zero-sum hyperplane.

    n            even dimension-plus-one (the hyperplane has dimension n-1)
    scale        homothety factor applied to the whole configuration
    thickening   margin tau in unscaled units, 0 < tau <= 1/n, which keeps
                 every coordinate's rounding forced (see the module notes)
    offset       zero-sum translation of the configuration, unscaled units
    """
    n: int
    scale: Fraction
    thickening: Fraction
    offset: tuple = None

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be even and >= 2")
        if self.scale <= 0 or self.thickening <= 0:
            raise ValueError("scale and thickening must be positive")
        if self.thickening > Fraction(1, self.n):
            raise ValueError("thickening must be at most 1/n")
        if self.offset is None:
            object.__setattr__(self, "offset", (Fraction(0),) * self.n)
        else:
            off = tuple(Fraction(c) for c in self.offset)
            if len(off) != self.n or sum(off) != 0:
                raise ValueError("offset must be a zero-sum vector of length n")
            object.__setattr__(self, "offset", off)

    @staticmethod
    def standard(n, scale=1):
        return LatticeCoverSpec(n, Fraction(scale), default_thickening(n))

    @cached_property
    def _decoder(self):
        return _SortedDecoder(self)


@dataclass(frozen=True)
class BoxCoverSpec:
    """Shape of a grown box cover of Z^k.

    side     points per edge of the cubes that tile Z^k
    growth   l1 radius by which each cube is grown; at most side, so only
             the 3^k cubes around a point's own cube can reach it
    """
    side: int
    growth: int

    def __post_init__(self):
        if self.side < 1 or not 0 <= self.growth <= self.side:
            raise ValueError("need side >= 1 and 0 <= growth <= side")


def _prefix_bounds(n, tau):
    """Per-cardinality right-hand sides for the sorted-prefix sums.

    The size-j inequality  gap <= 1/2 + tau * n / (2 j (n-j))  becomes, in
    terms of the sum of the j largest coordinates,  sum < j(n-j)/(2n) + tau/2.
    """
    return [Fraction(j * (n - j), 2 * n) + tau / 2 for j in range(1, n)]


def cell_contains(v, tau=0):
    """Membership of a zero-sum vector in the closed cell (tau == 0) or its
    open tau-enlargement (tau > 0, keeping in-family translates disjoint):
    membership's integer prefix test on v and the prefix bounds cleared
    together, each limit raised by 1 for the closed cell."""
    n = len(v)
    _, nums = clear_denominators([*v, *_prefix_bounds(n, Fraction(tau))])
    closed = tau == 0
    return _inside(nums[:n], [lim + closed for lim in nums[n:]])


def cell_contains_bruteforce(v, tau=0):
    """Oracle: test every one of the 2^n - 2 proper subsets directly.

    Exponential in n (capped at 12); denominators are cleared once so the
    subset scan runs on integers.  The subset-sum recurrence strips the
    lowest set bit, visiting all masks without the prefix reduction that
    the fast path relies on.
    """
    n = len(v)
    if n > 12:
        raise ValueError("brute force oracle limited to n <= 12")
    closed = tau == 0
    tau = Fraction(tau)
    D, X = clear_denominators(v)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + X[low.bit_length() - 1]
    # gap(I) <= 1/2 + tau * n / (2 j (n-j))  <=>
    # 2 n den(tau) sum_I <= (j (n-j) den(tau) + num(tau) n) D
    tn, td = tau.numerator, tau.denominator
    full = (1 << n) - 1
    for mask in range(1, full):
        j = mask.bit_count()
        lhs = 2 * n * td * sums[mask]
        rhs = (j * (n - j) * td + tn * n) * D
        if lhs > rhs or (lhs == rhs and not closed):
            return False
    return True


class _SortedDecoder:
    """Everything the sorted decode needs that depends only on the spec.

    Coordinates are cleared to one integer denominator D per point; the
    integer thresholds that turn the band and prefix comparisons into
    comparisons of integers depend on D only, and are kept per point
    denominator (grid points, decoded as integer vectors, have one).
    """

    def __init__(self, spec):
        n = self.n = spec.n
        self.scale_num = spec.scale.numerator
        self.scale_den = spec.scale.denominator
        self.offset_den = math.lcm(n, *(o.denominator for o in spec.offset))
        self.offset_num = [o.numerator * (self.offset_den // o.denominator)
                           for o in spec.offset]
        self.band = Fraction(n - 1, 2 * n) + spec.thickening / 2
        self.bound_den, self.bound_num = clear_denominators(
            _prefix_bounds(n, spec.thickening))
        self._tables = {}

    def tables(self, point_den):
        if point_den not in self._tables:
            self._tables[point_den] = self._build(point_den)
        return self._tables[point_den]

    def _build(self, point_den):
        D = math.lcm(self.offset_den, self.scale_num * point_den)
        # X_j = D (x_j / scale - offset_j) = x_num_j * mult - shift_j, with x_num_j
        # the numerator of x_j over point_den
        mult = D // (self.scale_num * point_den) * self.scale_den
        shift = [o * (D // self.offset_den) for o in self.offset_num]

        def first_rejected(num, den):
            # least integer t failing t < q, q = num D / den
            return -((-num * D) // den)

        # residue f may keep the floor iff f < low, take the ceiling iff f >= high;
        # a band of at most 1/2 makes low <= high
        low = first_rejected(self.band.numerator, self.band.denominator)
        high = D + 1 - low
        # a prefix sum s of the sorted residual violates the j-th bound iff s >= limits[j-1]
        limits = [first_rejected(b, self.bound_den) for b in self.bound_num]
        # family i's screen thresholds, i * step + low and i * step + high
        starts = range(0, D, D // self.n)
        lows = [c + low for c in starts]
        highs = [c + high for c in starts]
        return D, mult, shift, high, limits, lows, highs


def _inside(v, limits):
    run = 0
    for s, lim in zip(sorted(v, reverse=True), limits):
        run += s
        if run >= lim:
            return False
    return True


def membership(x, spec):
    """All (family, lattice point) pairs whose enlarged scaled cell holds x.

    x is a zero-sum vector of ints and Fractions in ambient (scaled)
    coordinates.  The arithmetic is exact and on integers only: the
    coordinates are cleared to one denominator, their residues sorted
    once, and every family screened by two comparisons at fixed positions
    of the doubled sorted residues (see the module notes on decoding).
    Pairs come family by family, at most one per family.  An empty result
    means the configuration failed to cover, a fatal geometry bug.
    """
    n = spec.n
    if len(x) != n:
        raise ValueError("dimension mismatch")
    point_den, nums = clear_denominators(x)
    D, mult, shift, high, limits, lows, highs = spec._decoder.tables(point_den)
    X = [c * mult - s for c, s in zip(nums, shift)]
    if sum(X):
        raise ValueError("point is not in the zero-sum hyperplane")
    # residues sorted twice over, the second copy lifted by D: a circular
    # interval of length at most D is then one run of the list
    ordered = sorted([c % D for c in X])
    T = n - sum(ordered) // D
    ordered += [r + D for r in ordered]
    # Family i (c = i * step) counts lo = #ordered < c + low and
    # hi = #ordered < c + high, so lo <= hi: its residues in
    # [c + low, c + high) can round neither way and the others are forced.
    # With T = n + sum floor(X_j / D) = n - sum res_j / D, in [1, n] because
    # sum X = 0 and 0 <= res_j < D, the forced rounding is zero-sum iff
    # lo = i + T.  So the family is feasible iff lo = hi = i + T, that is
    # iff hi <= i + T <= lo.  On the sorted list i + T <= lo iff
    # ordered[i + T - 1] < c + low, and hi <= i + T iff ordered[i + T] >=
    # c + high, both positions inside [0, 2n - 1]: two comparisons per
    # family against lows[i] = c + low, highs[i] = c + high.
    step = D // n
    # q, r = divmod(X_j - c + off, D): q (plus 1 below family i) is the
    # floor of the shifted coordinate, raised by one when its residue is at
    # least high, and r - off is the residual
    off = D - high
    out = []
    for i in range(n):
        if ordered[T - 1 + i] >= lows[i] or ordered[T + i] < highs[i]:
            continue
        shifted = off - i * step
        mu, v = [], []
        for j, c in enumerate(X):
            q, r = divmod(c + shifted, D)
            mu.append(q + (j < i))
            v.append(r - off)
        if _inside(v, limits):
            out.append((i, tuple(mu)))
    return out


def membership_or_fail(x, spec):
    found = membership(x, spec)
    if not found:
        raise CoverageError(f"lattice cover misses point {x}", witness=x)
    return found


def in_family_separation_bound(delta):
    """Certified lower bound for the l1 distance between closed cells at
    offset delta.

    For translates mu + C and mu' + C of a convex set C on which every
    split-average gap is at most g, any two points z, z' satisfy
    ||z - z'||_1 > gap(delta, I) - 2g for every subset I.  The closed cell
    has g = 1/2.  The returned value is the best such bound over singleton
    subsets, which is what the in-family disjointness argument uses.
    """
    n = len(delta)
    peak = max(abs(d) for d in delta)
    return Fraction(n, n - 1) * peak - 1


def embed_grid_point(z):
    """Isometry of Z^k (l1) into the zero-sum hyperplane of R^{2k}:
    each coordinate z_m becomes the pair (z_m/2, -z_m/2).

    The map of pullback-check, and the reference the grid decode is
    tested against; pullback_grid_cover decodes the integer vector
    2 embed_grid_point(z) instead, at twice the scale."""
    out = []
    for c in z:
        out.append(Fraction(c, 2))
        out.append(Fraction(-c, 2))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pullback covers of Z^k windows


def _generic_offset(n):
    """Small generic translation: an eighth of a cell vertex.  Breaks the
    coincidences between the integer image points and cell walls."""
    return tuple(c / 8 for c in vertex_profile(n))


def candidate_specs(k, L):
    """The lattice family's candidate specs for a target Lebesgue level L
    on Z^k, cheapest mesh first.  zk_cover tries them in this order, before
    the box cover.

    The last is canonical_spec(k, L), which makes the open thickening
    margin equal to L in window units, so the level-L condition is
    guaranteed; the earlier candidates only certify on lucky windows but
    give smaller mesh.  The near-maximal thickening keeps translates within
    a family disjoint (margin strictly below 1/n) while covering at depth
    L-1 from scale about (L-1) * n.
    """
    n = 2 * k
    tau0 = default_thickening(n)
    tau_big = Fraction(24, 25 * n)
    out = []
    for off in (None, _generic_offset(n)):
        out.append(LatticeCoverSpec(n, Fraction(L), tau0, off))
        out.append(LatticeCoverSpec(n, Fraction(2 * L), tau0, off))
    if L > 1:
        lam = Fraction(L - 1) / tau_big
        for bump in (Fraction(-1, 100), Fraction(1, 32), Fraction(1, 8)):
            out.append(LatticeCoverSpec(n, lam * (1 + bump), tau_big, _generic_offset(n)))
    out.append(canonical_spec(k, L))
    return out


def pullback_grid_cover(window, spec):
    """Cover of a Z^k window by preimages of the enlarged scaled cells,
    one set per (family, lattice point) pair.

    Each grid point z is decoded as the integer vector (z_1, -z_1, ...,
    z_k, -z_k) = 2 embed_grid_point(z) against the spec at twice its
    scale, with the same offset and thickening.  Both give the same
    point x / scale, so the pairs are those of embed_grid_point(z)
    against spec, and no Fraction is built per point.  A point no cell
    holds raises CoverageError with the grid point as witness.
    """
    doubled = replace(spec, scale=2 * spec.scale)

    def keys_of(i):
        z = window.points[i]
        found = membership([c for zm in z for c in (zm, -zm)], doubled)
        if not found:
            raise CoverageError(f"lattice cover misses grid point {z}", witness=z)
        return found

    return grouped_cover(window, keys_of, f"lattice cover scale={spec.scale}")


def box_grid_cover(window, spec):
    """Cover of a Z^k window by cubes of spec.side points per edge that
    tile Z^k, each grown by its closed l1 neighbourhood of radius
    spec.growth.

    The l1 distance from a point to a cube is the sum over axes of the
    gap to the cube's coordinate range, so each point is assigned by
    choosing, per axis, its own cube (gap 0) or a neighbour (gap t + 1
    below, side - t above, for the offset t within its own cube).
    """
    side, growth = spec.side, spec.growth

    def cubes(i):
        axes = []
        for c in window.points[i]:
            a, t = divmod(c, side)
            axes.append(((a, 0), (a - 1, t + 1), (a + 1, side - t)))
        return [tuple(a for a, _ in choice) for choice in itertools.product(*axes)
                if sum(gap for _, gap in choice) <= growth]

    return grouped_cover(window, cubes, f"box cover side={side} growth={growth}")


def canonical_spec(k, L):
    """The textbook choice: scale 2(2k-1)L with the default thickening,
    making the open margin around the closed cells exactly L."""
    n = 2 * k
    return LatticeCoverSpec(n, Fraction(2 * (2 * k - 1) * L),
                            default_thickening(n), _generic_offset(n))


def zk_cover(window, k, L, strict=True, spec=None):
    """Cover of a Z^k window meeting a Lebesgue target.

    Tries the lattice pullback candidates of candidate_specs in order,
    then, on Z^2 from L = 2, the box cover of side 2L-2 grown by L-1 (see
    the module notes), and returns the first cover certifying: multiplicity
    at most 2k, a Lebesgue level of at least L or else the level-L
    condition alone (it exempts points of interior radius below L-1), and
    mesh at most the advertised (2k^2-2k+1) L.  Every candidate passes the
    same measured checks, so the lattice family wins wherever it meets
    the contract.  With strict=False, when no candidate meets the mesh
    bound, the certified cover of least mesh is returned with its honest
    statistics.  An explicit spec (a LatticeCoverSpec or a BoxCoverSpec)
    bypasses the search.

    Returns (cover, stats, spec).
    """
    n = 2 * k
    mesh_bound = (2 * k * k - 2 * k + 1) * Fraction(L)
    if spec is not None:
        candidates = [spec]
    else:
        candidates = candidate_specs(k, L)
        if k == 2 and L >= 2:
            candidates.append(BoxCoverSpec(2 * L - 2, L - 1))
    best = None
    for spec in candidates:
        if isinstance(spec, BoxCoverSpec):
            cover = box_grid_cover(window, spec)
        else:
            cover = pullback_grid_cover(window, spec)
        stats = cover_stats(cover)
        if stats.multiplicity <= n and (
                stats.lebesgue >= L or lebesgue_condition(cover, L) is None):
            if stats.mesh <= mesh_bound:
                return cover, stats, spec
            if best is None or stats.mesh < best[1].mesh:
                best = (cover, stats, spec)
    if best is not None and not strict:
        return best
    detail = "" if best is None else (
        f" (best certified candidate: {best[0].name}, mesh {best[1].mesh}, "
        f"multiplicity {best[1].multiplicity})")
    raise ContractViolation(
        f"no candidate cover of Z^{k} met Lebesgue {L}, "
        f"multiplicity {n}, mesh {mesh_bound}{detail}",
        witness=best[1] if best else None)
