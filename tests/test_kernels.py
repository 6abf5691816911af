import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
# derandomized tests also pin @seed, so an edit does not change their examples
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from coarse_embed import kernels, spaces
from coarse_embed.covers import Cover, balls_cover, cover_stats, interval_cover
from coarse_embed.errors import CapExceeded, ConfigError, ContractViolation
from coarse_embed.experiments import run_profile
from coarse_embed.kernels import (Kernel, cover_classes, diff_norm, kernel_stats,
                                  mazur_map, mazur_pairs_check, p_norm,
                                  pou_kernel, pou_lipschitz_bound,
                                  pullback_kernel, tent_norm_floor, tent_profile,
                                  tree_kernel_tent)
from coarse_embed.lamplighter import lamplighter_ball
from coarse_embed.lattice import BoxCoverSpec, box_grid_cover, zk_cover
from coarse_embed.spaces import (FiniteMetricSpace, grid_space, rational_window,
                                 ray, ray_domain, tree_ball)
from coarse_embed.wreath import wreath_cover
from conftest import rebuilt


def test_constant_kernel_has_zero_lipschitz():
    g = grid_space(1, 5)
    fixed = {0: 0.5, 1: 0.5}

    kern = Kernel(g, 1, lambda i: dict(fixed), name="constant")
    st = kernel_stats(kern)
    assert st.lipschitz == 0.0


def test_norm_error_checks_every_eligible_point():
    # 4225 points; the one row off the unit sphere sits past index 4000
    g = grid_space(2, 32)
    bad = 4100

    kern = Kernel(g, 1, lambda i: {i: 2.0 if i == bad else 1.0}, name="one bad row")
    st = kernel_stats(kern)
    assert st.norm_error == 1.0


def test_single_set_cover_kernel():
    g = grid_space(1, 6)
    cover = Cover(g, [list(range(len(g)))])
    kern = pou_kernel(cover, 1)
    st = kernel_stats(kern)
    assert st.lipschitz == 0.0
    assert st.norm_error < 1e-12
    # the row is the boundary-capped weight profile, identical for every point
    assert kern.row(0) == kern.row(5)


def test_uncovered_row_names_its_point():
    g = grid_space(1, 2)
    kern = pou_kernel(Cover(g, [[0, 1, 2]]), 1)
    with pytest.raises(ContractViolation, match="uncovered") as err:
        kern.row(3)
    assert err.value.witness == g.points[3] == (1,)


def test_interval_cover_kernel_values_p1(line_window):
    cover = interval_cover(line_window)
    kern = pou_kernel(cover, 1, exact=True)
    x = line_window.index[(0,)]
    y = line_window.index[(1,)]
    d = sum(abs(kern.row(x).get(k, Fraction(0)) - kern.row(y).get(k, Fraction(0)))
            for k in set(kern.row(x)) | set(kern.row(y)))
    assert d == Fraction(3, 4)
    exact = diff_norm(kern.row(x), kern.row(y), 1)
    assert exact == d and isinstance(exact, Fraction)
    assert sum(kern.row(x).values()) == 1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_interval_cover_kernel_bound(line_window, p):
    cover = interval_cover(line_window)
    stats = cover_stats(cover)
    kern = pou_kernel(cover, p)
    ks = kernel_stats(kern)
    assert ks.norm_error <= 1e-9
    assert ks.support_radius <= stats.mesh
    assert ks.lipschitz <= pou_lipschitz_bound(stats, p=p) + 1e-9


def test_pou_support_iff_shared_set(small_grid):
    cover = balls_cover(small_grid, 2)
    kern = pou_kernel(cover, 2)
    mem = cover.membership()
    for i in random.Random(0).sample(range(len(small_grid)), 25):
        row = kern.row(i)
        expected = set()
        for sid in mem[i]:
            expected.update(cover.sets[sid])
        assert set(row) == expected


def test_pou_psi_is_one_lipschitz(small_grid):
    cover = balls_cover(small_grid, 2)
    sid = len(cover) // 2
    vals = kernels.cover_weights(cover)[sid]
    for i in cover.sets[sid]:
        for j in cover.sets[sid]:
            d = small_grid.dist_i(i, j)
            assert abs(vals[i] - vals[j]) <= d


def test_disjoint_supports_give_full_difference():
    g = grid_space(1, 30)
    cover = interval_cover(g)
    for p in (1, 2):
        kern = pou_kernel(cover, p)
        i, j = g.index[(-20,)], g.index[(20,)]
        d = diff_norm(kern.row(i), kern.row(j), p)
        assert d == pytest.approx(2.0 ** (1.0 / p), abs=1e-12)


def test_zk_cover_kernel_bound(small_grid):
    cover, stats, _ = zk_cover(small_grid, 2, 1)
    for p in (1, 2, 3):
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, min_interior=stats.lebesgue - 1)
        assert ks.lipschitz <= pou_lipschitz_bound(stats, p=p) + 1e-9


def test_cover_weights_computed_once_per_cover(monkeypatch):
    g = grid_space(2, 6)
    cover = balls_cover(g, 2)
    calls = []
    bare = kernels.boundary_distance

    def counted(*args):
        calls.append(args[1])
        return bare(*args)

    monkeypatch.setattr(kernels, "boundary_distance", counted)
    built = [(p, exact, pou_kernel(cover, p, exact=exact))
             for p, exact in ((1, False), (2, False), (3, False), (1, True))]
    assert len(calls) == sum(len(s) for s in cover.sets)
    for p, exact, kern in built:
        fresh = pou_kernel(balls_cover(g, 2), p, exact=exact)
        assert all(kern.row(i) == fresh.row(i) for i in range(len(g)))


# ---------------------------------------------------------------------------
# the bounded pair scan against an unpruned oracle


@functools.cache
def quotient_window(name):
    if name == "rational":      # a line at half spacing
        return centred_window([(Fraction(x, 2),) for x in range(-6, 7)], "half line")
    return {"line": lambda: grid_space(1, 12), "plane": lambda: grid_space(2, 4),
            "tree": lambda: tree_ball(3, 5),
            "lamplighter": lambda: lamplighter_ball(3, certify=False)}[name]()


WINDOWS = ("line", "plane", "rational", "tree", "lamplighter")


@st.composite
def random_covers(draw, windows=("line", "plane")):
    """Balls of random centres and radii, one set of every point no ball
    reached (so points in it alone share one support), and sometimes the
    whole window (so every row shares one support)."""
    name = draw(st.sampled_from(windows))
    g = quotient_window(name)
    n = len(g)
    sets = [g.closed_ball(c, r)
            for c, r in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(0, 3)), max_size=8))]
    reached = {i for s in sets for i in s}
    rest = [i for i in range(n) if i not in reached]
    if rest:
        sets.append(rest)
    if draw(st.booleans()):
        sets.append(list(range(n)))
    return Cover(g, sets, name="random")


def tree_kernel_flat(tree, S, p):
    """Flat-profile kernel: mass S^(-1/p) on the S ray points starting at
    the node itself (distances 0 .. S-1), giving exact unit norm."""
    return kernels._ray_kernel(tree, p, [S ** (-1.0 / p)] * S, f"flat S={S} p={p}")


def signed_kernel(p, seed, spread):
    """Rows of one to four signed entries on the line, each scaled to an
    l^p norm within spread of 1."""
    g = quotient_window("line")

    def row_fn(i):
        rng = random.Random(seed * len(g) + i)
        keys = rng.sample(range(len(g)), rng.randint(1, 4))
        vals = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in keys]
        scale = (1.0 + rng.uniform(-spread, spread)) / p_norm(vals, p)
        return {k: v * scale for k, v in zip(keys, vals)}

    return Kernel(g, p, row_fn, name=f"signed seed={seed}")


def restricted(kern, keep, seed):
    """The same rows on a random part of the kernel's domain, each point
    kept with probability keep: a part that geodesics through it need
    not join."""
    rng = random.Random(seed)
    domain = [i for i in kern.domain_indices if rng.random() < keep]
    return Kernel(kern.base, kern.p, kern.row, name=f"{kern.name} restricted",
                  domain_indices=domain)


@st.composite
def quotient_kernels(draw):
    family = draw(st.sampled_from(["pou", "pou exact", "tent", "flat",
                                   "pullback", "pullback exact", "signed"]))
    p = 1 if "exact" in family else draw(st.sampled_from([1, 2, 3]))
    if family.startswith("pou"):
        kern = pou_kernel(draw(random_covers(WINDOWS)), p, exact="exact" in family)
    elif family == "tent":
        kern = tree_kernel_tent(quotient_window("tree"), draw(st.integers(1, 3)), p)
    elif family == "flat":
        kern = tree_kernel_flat(quotient_window("tree"), draw(st.integers(1, 4)), p)
    elif family == "signed":
        kern = signed_kernel(p, draw(st.integers(0, 2 ** 16)),
                             draw(st.sampled_from([0.0, 0.1])))
    else:
        # the line's rows collect the plane rows along the retraction onto
        # the axis
        cover = balls_cover(quotient_window("plane"), draw(st.integers(1, 2)))
        plane = pou_kernel(cover, p, exact="exact" in family)
        kern = pullback_kernel(lambda z: (z[0], 0), grid_space(1, 4), plane)
    keep = draw(st.sampled_from([None, 0.4, 0.8]))
    if keep is None:
        return kern
    return restricted(kern, keep, draw(st.integers(0, 2 ** 16)))


def assert_stats_match_oracle(kern, min_interior):
    """kernel_stats equals the unpruned, unshared scan of every pair of
    eligible points: lipschitz is the largest diff_norm / d, and
    argmax_pair the first strict maximum over the policy's pairs in its
    visiting order (distance, then index, up to the plan's shell radius
    top; index order past it).  The policy accounts for every pair,
    evaluated or bounded; it is all-pairs off integer metrics, and edges
    only where every pair is joined by a geodesic through eligible points,
    whose unit edges are then its pairs.  The support radius is measured on
    the kernel's own rows."""
    space = kern.base
    ids = [i for i in kern.domain_indices if space.interior_radius[i] >= min_interior]
    at = {space.points[i]: a for a, i in enumerate(ids)}
    radius = max((space.dist_i(i, j) for i in ids for j in kern.row(i)), default=0)
    n = len(ids)
    pairs = list(itertools.combinations(range(n), 2))
    dist = [space.dist_i(ids[a], ids[b]) for a, b in pairs]
    quotient = [diff_norm(kern.row(ids[a]), kern.row(ids[b]), kern.p) / float(d)
                for (a, b), d in zip(pairs, dist)]

    # pair (a, b), a < b, sits at offset[a] + b in combinations order
    offset = [a * n - a * (a + 1) // 2 - a - 1 for a in range(n)]

    best = max(quotient, default=0.0)
    ks = kernel_stats(kern, min_interior=min_interior)
    assert ks.support_radius == radius
    # each point witness is eligible and its own row attains the statistic
    if ids:
        i = ids[at[ks.support_point]]
        assert max(space.dist_i(i, j) for j in kern.row(i)) == radius
        i = ids[at[ks.norm_error_point]]
        assert abs(p_norm(kern.row(i).values(), kern.p) - 1.0) == ks.norm_error
    else:
        assert ks.support_point is ks.norm_error_point is None
    assert ks.lipschitz == best
    if not space.integer_metric:
        assert ks.policy == "all-pairs"
    order = range(len(pairs))
    if ks.policy == "edges":
        steps = [[] for _ in ids]
        for (a, b), d in zip(pairs, dist):
            if d == 1:
                steps[a].append(b)
                steps[b].append(a)
        assert all(d == 1 or any(dist[offset[k] + b if k < b else offset[b] + k] == d - 1
                                 for k in steps[a])
                   for (a, b), d in zip(pairs, dist))
        order = [k for k in order if dist[k] == 1]
    assert ks.pairs_evaluated + ks.pairs_bounded == len(order)
    # a stable sort keeps index order within a distance
    plan = kernels.PairPlan(space, tuple(ids))
    visiting = sorted(order, key=lambda k: dist[k] if dist[k] <= plan.top else plan.top + 1)
    # a scan that nothing prunes visits each of the policy's pairs once
    assert list(plan.scan(lambda r: True)) == [
        (tuple(ids[c] for c in pairs[k]), float(dist[k])) for k in visiting]
    first, arg = 0.0, None
    for k in visiting:
        if quotient[k] > first:
            first, arg = quotient[k], tuple(space.points[ids[c]] for c in pairs[k])
    assert first == best and ks.argmax_pair == arg


def hand_built_kernel(p, rows):
    """Rows given outright on a line: a list at its first len(rows) points,
    a dict at the points it names."""
    rows = rows if isinstance(rows, dict) else dict(enumerate(rows))
    return Kernel(grid_space(1, 6), p, lambda i: dict(rows[i]), name="hand-built",
                  domain_indices=rows)


# Norms 1.05, 1.0 and 1.1, so e = 0.1: the last pair, 2.1 at d = 1, beats
# the first, 2.05, only under the full 2(1 + e) bound.
SIGNED_ROWS = [{0: 1.05}, {0: -1.0}, {0: 1.1}]
# Each row sums to exactly 1.0, so e = 0, but the pair sums round up: to
# 2 + 1 ulp for the first pair and 2 + 2 ulp for the last, both at d = 1.
# Only the margin keeps the last pair from being skipped.
ROUNDING_ROWS = [{0: 1.0}, dict(enumerate([0.39, 0.39, 0.22], start=1)),
                 dict(enumerate([0.11, 0.13, 0.1, 0.14, 0.1, 0.14, 0.28],
                                start=4))]
# Points 0, 1 and 3, with no point between 1 and 3: the edge (0, 1) reads
# 0.7 and the pair (1, 3) reads 2 / 2.  The edge rules out distance 3
# (2 / 3 < 0.7) but not distance 2, which holds the maximum.  Points 9 and
# 12 repeat point 3's row, so five points take the shells to radius 2.
GAP_ROWS = {0: {0: 1.0}, 1: {0: 0.65, 1: 0.35}, 3: {3: 1.0}, 9: {3: 1.0},
            12: {3: 1.0}}


@settings(max_examples=250, deadline=None, derandomize=True)
@seed(37200218572909827959875511421917371290370318034754927795344287509200146695095026487915406669419422319364332289661188)
@given(quotient_kernels(), st.integers(0, 2))
@example(hand_built_kernel(1, SIGNED_ROWS), 0)
@example(hand_built_kernel(2, SIGNED_ROWS), 0)
@example(hand_built_kernel(3, SIGNED_ROWS), 0)
@example(hand_built_kernel(1, ROUNDING_ROWS), 0)
@example(hand_built_kernel(1, GAP_ROWS), 0)
# large windows: a plane box and a tree past their boundary layers
@example(pou_kernel(balls_cover(grid_space(2, 20), 2), 2), 0)
@example(tree_kernel_tent(tree_ball(3, 10), 4, 2), 1)
def test_pruned_kernel_stats_matches_oracle(kern, min_interior):
    assert_stats_match_oracle(kern, min_interior)


def test_tent_kernel_on_the_leaves_alone_scans_every_pair():
    """At S = 30 only the 1,024 leaves of the depth-10 tree keep a ray of
    length 30 inside the window.  No two leaves are adjacent, so unit edges
    would see no pair; the shells and the sweep past them reach every pair
    and find the unpruned all-pairs maximum."""
    kern = tree_kernel_tent(tree_ball(3, 10), 30, 2)
    ks = kernel_stats(kern)
    assert len(kern.domain_indices) == 1024
    assert ks.policy == "shells"
    assert ks.lipschitz == 0.026525117744225557
    assert ks.pairs_evaluated + ks.pairs_bounded == 1024 * 1023 // 2


def test_disconnected_tree_interior_takes_shells():
    # min_interior 2 drops the root (interior radius 1) and the leaves:
    # the eligible nodes at depth 1..3 form two subtrees that only the
    # root joins
    kern = tree_kernel_tent(tree_ball(3, 5), 2, 2)
    assert kernel_stats(kern, min_interior=1).policy == "edges"
    assert kernel_stats(kern, min_interior=2).policy == "shells"
    assert_stats_match_oracle(kern, 2)


def test_far_lamplighter_pair_is_swept():
    """Two elements of the radius-7 ball at distance 14, past the radius
    whose lamplighter shells are enumerated: a constant kernel on them
    reads 0 from the one pair, swept with no shell."""
    far = lamplighter_ball(7, certify=False).subspace([((), 7), ((), -7)])
    assert far.dist(*far.points) == 14
    ks = kernel_stats(Kernel(far, 1, lambda i: {0: 1.0}, name="constant"))
    assert (ks.policy, ks.lipschitz, ks.pairs_evaluated) == ("all-pairs", 0.0, 1)


def permuted_window(space, seed):
    """The same points in a shuffled order: a window of the same size and
    kind whose index pairs lie at other distances."""
    order = list(range(len(space)))
    random.Random(seed).shuffle(order)
    return FiniteMetricSpace(
        [space.points[k] for k in order], space.dist, space.window_tag + " shuffled",
        [space.interior_radius[k] for k in order], geodesic=space.geodesic,
        kind=space.kind)


def moved_cover(cover, space):
    """cover's sets, by label, on another window holding the same points."""
    return Cover(space, [[space.index[cover.space.points[i]] for i in s]
                         for s in cover.sets], name=cover.name)


@settings(max_examples=20, deadline=None, derandomize=True)
@seed(35623491084918351429518263939641485189377536895264794455220690064052759934693464874323399935023957960524680431627080)
@given(random_covers(WINDOWS), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 2 ** 16))
def test_back_to_back_scans_match_unshared_oracle(cover, m1, m2, seed, shuffle):
    """Kernels scanned one after another share support radii; each result
    still equals its own unshared oracle."""
    for p, exact in ((1, False), (2, False), (3, False), (1, True)):
        assert_stats_match_oracle(pou_kernel(cover, p, exact=exact), m1)
    kern = pou_kernel(cover, 2)
    assert_stats_match_oracle(kern, m2)
    # the same rows on domains of one size: two halves and a random part
    n, half = len(cover.space), len(cover.space) // 2
    rng = random.Random(seed)
    for domain in (range(half), range(n - half, n), rng.sample(range(n), half)):
        assert_stats_match_oracle(Kernel(cover.space, 2, kern.row, domain_indices=domain), 0)
    # every point of this window, then of one of the same size and kind
    assert_stats_match_oracle(kern, 0)
    other = moved_cover(cover, permuted_window(cover.space, shuffle))
    for p in (1, 3):
        assert_stats_match_oracle(pou_kernel(other, p), 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(3041612997539915796701689109450652641114743446235853803838747797274269774900300811779108067613853897754572210970582)
@given(random_covers(("line", "plane", "rational")),
       st.permutations([(1, False), (2, False), (3, False), (1, True)]))
def test_shared_support_radii_match_each_row(cover, order):
    """Whichever pou kernel of a cover measures a row's radius first, each
    kernel reads the largest distance from the point to its own row."""
    space = cover.space
    for p, exact in order:
        kern = pou_kernel(cover, p, exact=exact)
        radii = [max(space.dist_i(i, j) for j in kern.row(i)) for i in range(len(space))]
        assert [kern.support_radius([i]) for i in range(len(space))] == [
            (r, i) for i, r in enumerate(radii)]
        assert kernel_stats(kern).support_radius == max(radii)


def reference_pou_row(cover, p, i):
    """A pou row built straight from the formula, raising every weight to
    the p-th power where it is used."""
    psi = kernels.cover_weights(cover)
    owners = cover.membership()[i]
    weights = [float(psi[sid][i]) for sid in owners]
    total_p = sum(w ** p for w in weights)
    out = {}
    for sid, w in zip(owners, weights):
        coef = (w ** p) / total_p
        norm_p = float(p_norm(psi[sid].values(), p)) ** p
        for z, wz in psi[sid].items():
            out[z] = out.get(z, 0.0) + coef * (float(wz) ** p) / norm_p
    if p == 1:
        return out
    return {z: v ** (1.0 / p) for z, v in out.items()}


@settings(max_examples=100, deadline=None, derandomize=True)
@seed(33242518317343640281265837817250599290106428882079589428732615318014682950187633228688691849104071916377894487728435)
@given(random_covers(("line", "plane", "rational")),
       st.sampled_from([1, 2, 3, 2.0, 1.5, 2.7]))
def test_pou_rows_equal_reference_builder(cover, p):
    kern = pou_kernel(cover, p)
    for i in range(len(cover.space)):
        # same entries in the same order, bit for bit
        assert list(kern.row(i).items()) == list(reference_pou_row(cover, p, i).items())


@st.composite
def periodic_covers(draw):
    """Covers whose constructors repeat under translation, on grid windows
    of half width 3 to 12, each at least as wide as its cover needs for
    two points to share a translation class (weights near the boundary
    are capped by the interior radius)."""
    family = draw(st.sampled_from(["balls", "interval", "box", "zk L=1", "zk L=3"]))
    if family == "interval":
        length = draw(st.integers(2, 5))
        return interval_cover(grid_space(1, draw(st.integers(6, 12))), length=length,
                              step=draw(st.integers(1, length)),
                              anchor=draw(st.integers(-3, 0)))
    if family == "balls":
        r = draw(st.integers(1, 3))
        return balls_cover(grid_space(2, draw(st.integers(2 * r + 1, 12))), r)
    if family == "box":
        side = draw(st.integers(1, 5))
        growth = draw(st.integers(0, min(side, (11 - side) // 2)))
        plane = grid_space(2, draw(st.integers(side + 2 * growth + 1, 12)))
        return box_grid_cover(plane, BoxCoverSpec(side, growth))
    L = int(family[-1])
    return zk_cover(grid_space(2, draw(st.integers(3 if L == 1 else 9, 12))), 2, L,
                    strict=False)[0]


@settings(max_examples=15, deadline=None, derandomize=True)
@seed(81366044317929217419446152263750718096716395585340911672470125137254447035990)
@given(periodic_covers())
def test_shifted_pou_rows_equal_reference_builder(cover):
    """Every row of a periodic cover's pou kernel, most of them shifted
    from their class's first point, equals the formula's row bit for bit,
    and an exact row equals the one row_fn builds."""
    cls, reps, _ = cover_classes(cover)
    assert len(reps) + cls.count(-1) < len(cls)
    n = len(cover.space)
    for p in (1, 2, 3, 2.7):
        kern = pou_kernel(cover, p)
        for i in range(n):
            assert list(kern.row(i).items()) == list(reference_pou_row(cover, p, i).items())
    kern = pou_kernel(cover, 1, exact=True)
    twin = Kernel(cover.space, 1, kern.row_fn)
    for i in range(n):
        assert list(kern.row(i).items()) == list(twin.row(i).items())


@settings(max_examples=10, deadline=None, derandomize=True)
@seed(23092837592357020936105693019810436541872917702934805986213427195847203958602)
@given(periodic_covers(), st.sampled_from([(1, False), (2, False), (3, False), (1, True)]),
       st.integers(0, 2))
def test_memoized_quotients_equal_direct_ones(cover, p_exact, min_interior):
    """Every pair of the policy, and every other eligible pair at distance
    2 or 3 (pairs of one class and distance in several directions), gets
    the quotient of its own rows, whether the memo is filled visiting the
    pairs forward or reversed (so another pair of each class stores the
    key)."""
    p, exact = p_exact
    space = cover.space
    eligible = tuple(i for i in range(len(space))
                     if space.interior_radius[i] >= min_interior)
    keep = set(eligible)
    pairs = list(kernels.PairPlan(space, eligible).scan(lambda r: True))
    pairs += [((i, j), d) for i in eligible for d in (2, 3)
              for j in sorted(space.shell(i, d)) if j > i and j in keep]
    for order in (pairs, pairs[::-1]):
        kern = pou_kernel(cover, p, exact=exact)
        for (i, j), d in order:
            assert kern.pair_quotient(i, j, d) == (
                diff_norm(kern.row(i), kern.row(j), p) / float(d))
        assert len(kern._quotients) < len(pairs) or len(pairs) < 2


@settings(max_examples=15, deadline=None, derandomize=True)
@seed(88607531044605445699647634038623996832418200623763703510182654131656831264235)
@given(periodic_covers(),
       st.sampled_from([(1, False), (2, False), (3, False), (2.7, False), (1, True)]),
       st.integers(0, 2))
def test_class_norm_errors_equal_per_row_ones(cover, p_exact, min_interior):
    """Over the eligible points forward, reversed and every other one (so
    that the first member of a class met is often not its first point),
    norm_error equals, value and point, that of a twin without classes,
    and builds only the rows of the first member of each class met (with
    the first point's row it shifts) and of the points alone in their
    class.  A row_fn that scales one class's first row by 3/2 moves every
    member of the class off the sphere, and norm_error names the first one
    met, with the error the twin measures on the scaled row."""
    p, exact = p_exact
    space = cover.space
    classes = cover_classes(cover)
    cls, reps, _ = classes
    eligible = [i for i in range(len(space))
                if space.interior_radius[i] >= min_interior]
    for indices in (eligible, eligible[::-1], eligible[1::2]):
        kern = pou_kernel(cover, p, exact=exact)
        assert kern.norm_error(indices) == Kernel(space, p, kern.row_fn).norm_error(indices)
        first = {}
        for i in indices:
            first.setdefault(cls[i] if cls[i] >= 0 else -1 - i, i)
        assert set(kern._rows) == {*first.values(),
                                   *(reps[c] for c in first if c >= 0)}

        c = next((cls[i] for i in indices[len(indices) // 2:] if cls[i] >= 0), None)
        if c is None:
            continue

        def scaled(i, row_fn=kern.row_fn, rep=reps[c]):
            row = row_fn(i)
            return {z: v * 3 / 2 for z, v in row.items()} if i == rep else row

        want = Kernel(space, p, scaled).norm_error([reps[c]])[0]
        assert want > 0.4
        assert Kernel(space, p, scaled, classes=classes).norm_error(indices) == (
            want, next(i for i in indices if cls[i] == c))


def counted_diff_norms(monkeypatch):
    """A list that gets one entry per kernels.diff_norm evaluation."""
    norms = []
    bare = kernels.diff_norm

    def counted(row_a, row_b, p):
        norms.append(1)
        return bare(row_a, row_b, p)

    monkeypatch.setattr(kernels, "diff_norm", counted)
    return norms


def test_pairs_evaluated_counts_pair_quotient_calls(monkeypatch):
    """The memo lives inside pair_quotient, so every evaluated pair is
    still one pair_quotient call, and a kernel whose pairs repeat (a pou
    kernel of a cover with classes, a ray kernel) evaluates fewer
    diff_norms than that."""
    calls = []
    bare = Kernel.pair_quotient

    def counted(self, i, j, d):
        calls.append((i, j))
        return bare(self, i, j, d)

    monkeypatch.setattr(Kernel, "pair_quotient", counted)
    norms = counted_diff_norms(monkeypatch)
    covers = (balls_cover(grid_space(2, 6), 2), interval_cover(grid_space(1, 20)))
    tree = tree_ball(3, 4)
    for p in (1, 2):
        for kern, min_interior in ((pou_kernel(covers[0], p), 1),
                                   (pou_kernel(covers[1], p), 1),
                                   (tree_kernel_tent(tree, 4, p), 0)):
            calls.clear()
            norms.clear()
            ks = kernel_stats(kern, min_interior=min_interior)
            assert ks.pairs_evaluated == len(calls) > len(norms) > 0


def test_covers_where_nothing_repeats_take_no_classes(monkeypatch):
    """A cover with every class one point gets no classes: its kernels
    build every row through row_fn and evaluate one diff_norm per pair."""
    norms = counted_diff_norms(monkeypatch)
    g = grid_space(2, 4)
    for cover in (wreath_cover(lamplighter_ball(3, certify=False), 1)[0],
                  moved_cover(balls_cover(g, 1), permuted_window(g, 3))):
        assert cover_classes(cover) is None
        for p in (1, 2):
            kern = pou_kernel(cover, p)
            norms.clear()
            ks = kernel_stats(kern)
            assert len(norms) == ks.pairs_evaluated > 0
            for i in range(len(cover.space)):
                assert list(kern.row(i).items()) == list(
                    reference_pou_row(cover, p, i).items())


class CountedColumn(list):
    """A signed-sum column that counts its entry reads in reads."""

    def __init__(self, col, reads):
        super().__init__(col)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(1)
        return super().__getitem__(i)


def test_second_scan_of_a_cover_measures_no_distance():
    """The grid's radii are read from its signed-sum columns, once per
    cover: the p = 1 scan reads the columns and fills the cover's radius
    cache, and the p = 2 and 3 scans read neither a column nor the
    metric, and leave the cache as it was."""
    g = grid_space(2, 20)
    calls, reads = [], []
    bare = g.dist

    def counted(a, b):
        calls.append(1)
        return bare(a, b)

    g.dist = counted
    g.signed_sums = [CountedColumn(col, reads) for col in g.signed_sums]
    cover = balls_cover(g, 2)
    first = kernel_stats(pou_kernel(cover, 1), min_interior=1)
    assert reads and not calls
    measured = dict(cover._radii)
    assert len(measured) == sum(r >= 1 for r in g.interior_radius)
    reads.clear()
    for p in (2, 3):
        ks = kernel_stats(pou_kernel(cover, p), min_interior=1)
        assert ks.support_radius == first.support_radius
    assert not reads and not calls
    assert cover._radii == measured


# ---------------------------------------------------------------------------
# tree kernels


def test_tent_profile_shape():
    assert tent_profile(4) == [2, 4, 6, 4, 2]
    assert tent_profile(5) == [2, 4, 6, 6, 4, 2]


def test_tent_support_radius_one():
    tree = tree_ball(3, 3)
    kern = tree_kernel_tent(tree, 1, 1)
    st = kernel_stats(kern)
    assert st.support_radius == 1


def test_tree_kernels_reject_shallow_windows():
    tree = tree_ball(3, 2)
    with pytest.raises(ValueError):
        tree_kernel_tent(tree, 16, 2)
    with pytest.raises(ValueError):
        tree_kernel_flat(tree, 20, 1)


@pytest.mark.parametrize("S,p", [(4, 1), (4, 2), (8, 2)])
def test_tent_neighbor_difference_identity(S, p):
    sp = tree_ball(3, 4)
    kern = tree_kernel_tent(sp, S, p)
    raw = [v for v in tent_profile(S)]
    norm = p_norm(raw, p)
    i, j = sp.index[(0, 1)], sp.index[(0,)]
    d = diff_norm(kern.row(i), kern.row(j), p)
    # adjacent rows differ in p-th power by exactly 2^p (2 floor(S/2) + 2)
    assert d ** p * norm ** p == pytest.approx(2 ** p * (2 * (S // 2) + 2), rel=1e-9)


def test_tent_row_raises_outside_its_ray_domain():
    sp = tree_ball(3, 2)
    kern = tree_kernel_tent(sp, 4, 1)
    domain = set(kern.domain_indices)
    outside = [i for i, x in enumerate(sp.points)
               if isinstance(x, int) and i not in domain]
    assert outside
    for i in outside:
        with pytest.raises(KeyError):
            kern.row(i)
    assert all(kern.row(i) for i in domain)


@pytest.mark.parametrize("fault", ["truncated", "repeating"])
def test_tent_row_off_its_full_ray_is_the_norm_error_point(monkeypatch, fault):
    """Ray rows have their norms measured one by one: a row zipped with a
    ray that stops early, or that repeats an index, loses part of the
    profile's mass, and is the one row off the unit sphere."""
    tree = tree_ball(3, 5)
    bad = ray_domain(tree, 4)[10]
    full = spaces.ray

    def faulty(space, i, length):
        out = full(space, i, length)
        if i != bad:
            return out
        return out[:-1] if fault == "truncated" else [*out[:-1], out[-2]]

    monkeypatch.setattr(spaces, "ray", faulty)
    for p in (1, 2):
        ks = kernel_stats(tree_kernel_tent(tree, 4, p))
        assert ks.norm_error_point == tree.points[bad] and ks.norm_error > 0.01


@pytest.mark.parametrize("domain", [None, [1, 2]], ids=["full", "restricted"])
def test_row_rejects_indices_outside_the_window(domain):
    kern = Kernel(grid_space(1, 1), 1, lambda i: {i: 1.0}, domain_indices=domain)
    for i in (-1, -3, 3, 7):
        with pytest.raises(KeyError, match=f"index {i}"):
            kern.row(i)
    if domain:
        with pytest.raises(KeyError, match=r"\(-1,\)"):
            kern.row(0)
    assert kern.row(2) == {2: 1.0}


@pytest.mark.parametrize("build", [
    lambda: tree_kernel_tent(tree_ball(3, 6), 4, 2),
    lambda: pou_kernel(balls_cover(grid_space(2, 6), 2), 2),
], ids=["tent", "pou"])
def test_kernel_stats_drops_the_rows_it_built(build):
    kern = build()
    built = {}
    row_fn = kern.row_fn

    def recording(i):
        built[i] = row_fn(i)
        return built[i]

    kern.row_fn = recording
    held = {i: kern.row(i) for i in kern.domain_indices[:3]}
    first = kernel_stats(kern)
    assert kern._rows == held
    assert all(kern._rows[i] is row for i, row in held.items())
    measured = dict(built)
    assert set(measured) > set(held)
    assert kernel_stats(kern) == first
    assert kern._rows == held
    for i, row in measured.items():
        rebuilt = kern.row(i)
        assert rebuilt == row and list(rebuilt) == list(row)


@st.composite
def fresh_tree_windows(draw):
    """A tree window built for the example, so that its ray radii start
    empty: tree_ball(3, depth), a fresh rebuild of it, or a seeded
    subspace of it in shuffled order (rays with gaps included)."""
    tree = tree_ball(3, draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["ball", "rebuilt", "subspace"]))
    if kind == "rebuilt":
        return rebuilt(tree)
    if kind == "subspace":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        return tree.subspace(rng.sample(tree.points, rng.randrange(1, len(tree) + 1)))
    return tree


def ray_kernel(space, length, p, profile):
    """A tent kernel of the given ray length, or a flat one (S = length + 1
    ray points); None where the window holds no such ray."""
    if profile == "tent" and length >= 1:
        build = functools.partial(tree_kernel_tent, space, length)
    else:
        build = functools.partial(tree_kernel_flat, space, length + 1)
    if not ray_domain(space, length):
        with pytest.raises(ValueError, match="window too shallow"):
            build(p)
        return None
    return build(p)


@settings(max_examples=120, deadline=None, derandomize=True)
@seed(472746717221767076197141084909878157346250754582866458225686238662894062650726005571525996953953724962789421186346)
@given(fresh_tree_windows(), st.data())
def test_shared_ray_radii_match_each_row(space, data):
    """Ray kernels of one window built in one order of lengths, p and
    profiles and measured in another (S ascending, descending or
    interleaved, a whole domain or one point per call): each reads the
    largest distance from a point to its own row."""
    specs = data.draw(st.lists(st.tuples(st.integers(0, 13), st.sampled_from([1, 2]),
                                         st.sampled_from(["tent", "flat"])),
                               min_size=1, max_size=6))
    kerns = [k for k in (ray_kernel(space, *spec) for spec in specs) if k is not None]
    for k in data.draw(st.permutations(range(len(kerns)))):
        kern = kerns[k]
        domain = kern.domain_indices
        radii = [max(space.dist_i(i, j) for j in kern.row(i)) for i in domain]
        if data.draw(st.booleans()):
            assert kern.support_radius() == (max(radii), domain[radii.index(max(radii))])
        else:
            points = data.draw(st.permutations(range(len(domain))))
            assert [kern.support_radius([domain[m]]) for m in points] == [
                (radii[m], domain[m]) for m in points]
        assert kernel_stats(kern).support_radius == max(radii)


@pytest.mark.parametrize("window", ["ball", "json"])
def test_each_ray_pair_is_measured_once(window):
    """Ray kernels measured with lengths ascending, at p = 1 and 2 and with
    a flat profile of the same length, measure each (point, ray point)
    pair once per ray length, through the window's farthest: a point's
    whole ray at each length whose domain holds it."""
    tree = tree_ball(3, 5)
    if window == "json":
        tree = rebuilt(tree)
    measured = []
    bare = tree.farthest

    def counted(i, keys):
        keys = list(keys)
        measured.extend((tree.points[i], tree.points[j]) for j in keys)
        return bare(i, keys)

    tree.farthest = counted
    for length in [1, 2, 4, 8, 15]:
        measured.clear()
        for kern in (tree_kernel_tent(tree, length, 1), tree_kernel_flat(tree, length + 1, 2),
                     tree_kernel_tent(tree, length, 2)):
            assert kern.support_radius()[0] == length
        want = Counter((label, tree.points[j]) for i, label in enumerate(tree.points)
                       if tree.ray_reach[i] >= length for j in ray(tree, i, length))
        assert set(want.values()) == {1}
        assert Counter(measured) == want


def test_kernel_row_entries_are_capped(monkeypatch):
    # under a cap of 100, tree_ball(3, 4)'s 39 points pass; its tent rows
    # of length 3 hold 36 * 4 entries, those of length 1 hold 38 * 2; the
    # unit-ball sets of a line of 13 points hold 2^2 + 11 * 3^2 + 2^2
    # member pairs, those of a line of 9 points 71
    monkeypatch.setenv("COARSE_EMBED_CAP", "100")
    tree = tree_ball(3, 4)
    with pytest.raises(CapExceeded, match=r"tent S=3 p=2 row entries: 144 exceeds cap 100"):
        tree_kernel_tent(tree, 3, 2)
    assert len(tree_kernel_tent(tree, 1, 2).domain_indices) == 38
    with pytest.raises(CapExceeded, match=r"p=2\) row entries: 107 exceeds cap 100"):
        pou_kernel(balls_cover(grid_space(1, 6), 1), 2)
    assert pou_kernel(balls_cover(grid_space(1, 4), 1), 2).row(0)


@pytest.mark.parametrize("shorter", [None, 1, 2], ids=["none", "S=1", "S=2"])
def test_a_strayed_ray_key_shows_in_the_support_radius(shorter):
    # the row at (0, 0, 1) swaps its ray point (0,) for the sibling (1,),
    # 4 steps away where the ray's farthest point is 3: an ancestor-only
    # reading would give reach[(0, 0, 1)] - reach[(1,)] = 2.  The stray
    # key sits at ray position 2, so it also shows after a shorter tent
    # kernel measured its rows first on the same window.
    tree = tree_ball(3, 4)
    if shorter is not None:
        assert tree_kernel_tent(tree, shorter, 2).support_radius()[0] == shorter
    kern = tree_kernel_tent(tree, 3, 2)
    at, bare = tree.index.__getitem__, kern.row_fn
    stray = at((0, 0, 1))

    def row_fn(i):
        row = bare(i)
        return {at((1,)) if (i, k) == (stray, at((0,))) else k: v
                for k, v in row.items()}

    kern.row_fn = row_fn
    assert kern.support_radius() == (4, stray)
    stats = kernel_stats(kern)
    assert (stats.support_radius, stats.support_point) == (4, (0, 0, 1))


def falling_kernel(tree, length, p):
    """A ray kernel whose values fall as 1/(d + 3), normalized: no two
    entries equal, so a row with its values rotated sums them in another
    order."""
    raw = [1.0 / (d + 3) for d in range(length + 1)]
    norm = p_norm(raw, p)
    return kernels._ray_kernel(tree, p, [v / norm for v in raw], f"falling L={length}")


@settings(max_examples=60, deadline=None, derandomize=True)
@seed(85520037717189068741414550417052095587329689987965497503407802572874932340958)
@given(st.integers(1, 6), st.data())
def test_ray_memo_and_shared_norm_equal_per_row_ones(depth, data):
    """Over every ordered pair of a ray domain of tree_ball(3, depth), a
    tent or falling value list and p in {1, 2, 3}, visited forward and
    reversed (so another pair of each ray_meet key fills the memo),
    pair_quotient is diff_norm of the two rows over the distance, bit for
    bit.  A point with itself, at a nominal distance 1, reads 0: (0, 0) is
    a key of its own, apart from None.  norm_error, value and point,
    equals that of a twin without ray_length over the domain forward and
    reversed, also after a row_fn that rotates one row's values, which
    then has its own norm measured."""
    tree = tree_ball(3, depth)
    length = data.draw(st.integers(0, 3 * depth), label="length")
    tent = length >= 1 and data.draw(st.booleans(), label="tent")
    p = data.draw(st.sampled_from([1, 2, 3]), label="p")

    def build():
        return tree_kernel_tent(tree, length, p) if tent else falling_kernel(tree, length, p)

    kern = build()
    domain = kern.domain_indices
    pairs = [(i, j) for i in domain for j in domain if i != j]
    want = {(i, j): diff_norm(kern.row(i), kern.row(j), p) / float(tree.dist_i(i, j))
            for i, j in pairs}
    for order in (pairs, pairs[::-1]):
        kern = build()
        for i, j in order:
            assert kern.pair_quotient(i, j, tree.dist_i(i, j)) == want[i, j]
        for i in domain:
            assert kern.pair_quotient(i, i, 1) == 0.0

    bad = data.draw(st.sampled_from(domain), label="rotated row")

    def rotating(i, row_fn=kern.row_fn):
        row = row_fn(i)
        if i != bad:
            return row
        vals = list(row.values())
        return dict(zip(row, vals[1:] + vals[:1]))

    for row_fn in (kern.row_fn, rotating):
        kern = build()
        kern.row_fn = row_fn
        twin = Kernel(tree, p, row_fn, domain_indices=domain)
        assert twin.ray_length is None
        for indices in (domain, domain[::-1]):
            assert kern.norm_error(indices) == twin.norm_error(indices)


def test_tent_norm_floor_every_node():
    tree = tree_ball(3, 5)
    for S in (2, 4, 8):
        for p in (1, 2):
            raw_norm = p_norm(tent_profile(S), p)
            assert raw_norm > tent_norm_floor(S, p)


@pytest.mark.parametrize("S", [4, 8])
def test_tent_lipschitz_bound(S):
    tree = tree_ball(3, 7)
    for p in (1, 2):
        kern = tree_kernel_tent(tree, S, p)
        ks = kernel_stats(kern)
        assert ks.lipschitz <= 8.0 / S + 1e-9


def test_flat_kernel_examples():
    tree = tree_ball(3, 4)
    kern1 = tree_kernel_flat(tree, 1, 1)
    row = kern1.row(tree.index[(0, 0)])
    assert row == {tree.index[(0, 0)]: 1.0}
    for p in (1, 2):
        kern = tree_kernel_flat(tree, 8, p)
        i, j = tree.index[()], tree.index[-1]
        assert diff_norm(kern.row(i), kern.row(j), p) == pytest.approx(
            (2 / 8) ** (1 / p), abs=1e-12)
        assert kern.norm_error([i, j])[0] < 1e-12


def test_flat_kernel_measured_constant_reported():
    # the flat construction's measured constant lands at (2/S)^(1/p); it is
    # reported, never asserted against any smaller advertised value
    tree = tree_ball(3, 6)
    S = 8
    for p in (1, 2):
        kern = tree_kernel_flat(tree, S, p)
        ks = kernel_stats(kern)
        assert ks.lipschitz == pytest.approx((2.0 / S) ** (1.0 / p), rel=1e-9)


# ---------------------------------------------------------------------------
# sphere homeomorphism


def test_mazur_fixes_basis_vectors():
    v = [0.0, 1.0, 0.0]
    assert mazur_map(v, 2, 1) == [0.0, 1.0, 0.0]


def test_mazur_example_half_half():
    r = 1 / math.sqrt(2)
    out = mazur_map([r, r], 2, 1)
    assert out == pytest.approx([0.5, 0.5])


def test_mazur_rejects_non_unit():
    with pytest.raises(ValueError):
        mazur_map([1.0, 1.0], 2, 1)


def test_mazur_preserves_norm_and_contracts():
    rng = random.Random(3)
    for _ in range(200):
        v = [rng.gauss(0, 1) for _ in range(8)]
        n = p_norm(v, 2)
        v = [c / n for c in v]
        out = mazur_map(v, 2, 1)
        assert p_norm(out, 1) == pytest.approx(1.0, abs=1e-9)
    worst, draw = mazur_pairs_check(8, 2, 1, 500, seed=5)
    assert worst <= 2.0 and 0 <= draw < 500


# ---------------------------------------------------------------------------
# transfer along a map


def centred_window(points, tag):
    """Rational window whose interior radii are measured from the origin."""
    rad = max(sum(abs(c) for c in p) for p in points)
    return rational_window(points, [rad - sum(abs(c) for c in p) for p in points], tag)


def test_pullback_kernel_identity_map(small_grid):
    # every row, so the norm error and the contraction margin are 0 and
    # the support radii agree
    kern = pou_kernel(balls_cover(small_grid, 2), 1, exact=True)
    sigma = pullback_kernel(lambda p: p, small_grid, kern)
    assert all(sigma.row(i) == kern.row(i) for i in range(len(small_grid)))


def tree_profile(**cfg):
    """run_profile with its grid, wreath and Mazur parts kept small."""
    result = run_profile({"grid_half_width": 3, "grid_S_list": [2],
                          "wreath_radius": 1, "mazur_dim": 2, "mazur_pairs": 1,
                          **cfg})
    return [r for r in result.rows if r["space"] == "tree"], result.checks


def test_tree_profile_is_a_running_minimum_with_interpolation_column():
    rows, checks = tree_profile(tree_depth=7, tree_S_list=[16, 2, 8, 4])
    assert all(c.ok for c in checks)
    assert [r["S"] for r in rows] == [2, 4, 8, 16]
    uppers = [r["eps_upper"] for r in rows]
    assert uppers == sorted(uppers, reverse=True)
    measured = [r["eps_measured"] for r in rows]
    assert uppers == [min(measured[:k + 1]) for k in range(len(rows))]
    assert "mazur_bound" in rows[-1]      # 16 >= e^2
    assert "mazur_bound" not in rows[0]   # 2 < e^2


def test_tree_profile_past_the_window_is_a_config_error():
    # depth 1: the longest ray is 3, so S = 3.5 (a kernel at 3) is the last
    # S it holds, and S = 4 is the caller's config
    rows, checks = tree_profile(tree_depth=1, tree_S_list=[2, 3.5])
    assert all(c.ok for c in checks) and [r["S"] for r in rows] == [2, 3.5]
    with pytest.raises(ConfigError, match="3 \\* tree_depth = 3"):
        tree_profile(tree_depth=1, tree_S_list=[2, 4, 8, 16, 32])


def test_pullback_kernel_rejects_non_injective():
    g = grid_space(1, 2)
    cover = Cover(g, [list(range(len(g)))])
    kern = pou_kernel(cover, 1)
    with pytest.raises(ValueError):
        pullback_kernel(lambda p: (0,), g, kern)
