import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarse_embed import kernels
from coarse_embed.covers import Cover, balls_cover, cover_stats, interval_cover
from coarse_embed.kernels import (Kernel, diff_norm, kernel_stats,
                                  mazur_map, mazur_pairs_check, p_norm,
                                  pou_kernel, pou_lipschitz_bound,
                                  pullback_kernel, tent_norm_floor, tent_profile,
                                  tree_kernel_flat, tree_kernel_tent)
from coarse_embed.lattice import embed_grid_point, zk_cover
from coarse_embed.spaces import grid_space, tree_ball, FiniteMetricSpace


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
    st = kernel_stats(kern, sample_pairs=10)
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


def test_interval_cover_kernel_values_p1(line_window):
    cover = interval_cover(line_window)
    kern = pou_kernel(cover, 1, exact=True)
    x = line_window.index[(0,)]
    y = line_window.index[(1,)]
    d = sum(abs(kern.row(x).get(k, Fraction(0)) - kern.row(y).get(k, Fraction(0)))
            for k in set(kern.row(x)) | set(kern.row(y)))
    assert d == Fraction(3, 4)
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
        return rational_window([(Fraction(x, 2),) for x in range(-6, 7)], "half line")
    return {"line": lambda: grid_space(1, 12), "plane": lambda: grid_space(2, 4),
            "tree": lambda: tree_ball(3, 5)}[name]()


@st.composite
def random_covers(draw, windows=("line", "plane")):
    """Balls of random centres and radii, one set of every point no ball
    reached (so points in it alone share one support), and sometimes the
    whole window (so every row shares one support)."""
    name = draw(st.sampled_from(windows))
    g = quotient_window(name).space if name == "tree" else quotient_window(name)
    n = len(g)
    sets = [[g.index[q] for q in g.closed_ball(g.points[c], r)]
            for c, r in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(0, 3)), max_size=8))]
    reached = {i for s in sets for i in s}
    rest = [i for i in range(n) if i not in reached]
    if rest:
        sets.append(rest)
    if draw(st.booleans()):
        sets.append(list(range(n)))
    return Cover(g, sets, name="random")


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


@st.composite
def quotient_kernels(draw):
    family = draw(st.sampled_from(["pou", "pou exact", "tent", "flat",
                                   "pullback", "pullback exact", "signed"]))
    p = 1 if "exact" in family else draw(st.sampled_from([1, 2, 3]))
    if family.startswith("pou"):
        return pou_kernel(draw(random_covers()), p, exact="exact" in family)
    if family == "tent":
        return tree_kernel_tent(quotient_window("tree"), draw(st.integers(1, 3)), p)
    if family == "flat":
        return tree_kernel_flat(quotient_window("tree"), draw(st.integers(1, 4)), p)
    if family == "signed":
        return signed_kernel(p, draw(st.integers(0, 2 ** 16)),
                             draw(st.sampled_from([0.0, 0.1])))
    # the line's rows collect the plane rows along the retraction onto the axis
    cover = balls_cover(quotient_window("plane"), draw(st.integers(1, 2)))
    plane = pou_kernel(cover, p, exact="exact" in family)
    sigma, _ = pullback_kernel(lambda z: (z[0], 0), grid_space(1, 4), plane)
    return sigma


def policy_pairs(kern, min_interior, seed=0, sample_pairs=20_000,
                 all_pairs_cap=kernels.ALL_PAIRS_CAP):
    """The pair policy's pairs, enumerated apart from kernel_stats, and the
    policy's label."""
    space = kern.base
    eligible = [i for i in kern.domain_indices
                if space.interior_radius[i] >= min_interior]
    if len(eligible) <= all_pairs_cap:
        return list(itertools.combinations(eligible, 2)), "all-pairs"
    chosen = set(eligible)
    pairs = [(i, j) for i, j in space.edge_pairs() if i in chosen and j in chosen]
    rng = random.Random(seed)
    for _ in range(sample_pairs):
        i = eligible[rng.randrange(len(eligible))]
        j = eligible[rng.randrange(len(eligible))]
        if i != j:
            pairs.append((i, j))
    exact = space.geodesic and (min_interior == 0 or space.kind == "grid")
    return pairs, "edges-exact+sample" if exact else "edges+sample"


def assert_stats_match_oracle(kern, min_interior, **policy):
    """kernel_stats equals the unpruned, unshared scan: the largest
    diff_norm / d over the policy's pairs, its first strict maximum as the
    witness pair, every pair either evaluated or bounded, and the support
    radius measured on the kernel's own rows."""
    space = kern.base
    pairs, label = policy_pairs(kern, min_interior, **policy)
    eligible = {space.points[i]: i for i in kern.domain_indices
                if space.interior_radius[i] >= min_interior}
    radius = max((space.dist_i(i, j) for i in eligible.values() for j in kern.row(i)),
                 default=0)
    best, arg = 0.0, None
    for i, j in pairs:
        q = diff_norm(kern.row(i), kern.row(j), kern.p) / float(space.dist_i(i, j))
        if q > best:
            best, arg = q, (space.points[i], space.points[j])
    ks = kernel_stats(kern, min_interior=min_interior, **policy)
    assert ks.support_radius == radius
    # each point witness is eligible and its own row attains the statistic
    if eligible:
        at = eligible[ks.support_point]
        assert max(space.dist_i(at, j) for j in kern.row(at)) == radius
        at = eligible[ks.norm_error_point]
        assert abs(p_norm(kern.row(at).values(), kern.p) - 1.0) == ks.norm_error
    else:
        assert ks.support_point is ks.norm_error_point is None
    assert ks.lipschitz == best
    assert ks.argmax_pair == arg
    assert ks.pairs_evaluated + ks.pairs_bounded == len(pairs)
    assert ks.policy == label


def hand_built_kernel(p, rows):
    """Rows given outright at the first len(rows) points of a line."""
    return Kernel(grid_space(1, 6), p, lambda i: dict(rows[i]), name="hand-built",
                  domain_indices=range(len(rows)))


# Norms 1.05, 1.0 and 1.1, so e = 0.1: the last pair, 2.1 at d = 1, beats
# the first, 2.05, only under the full 2(1 + e) bound.
SIGNED_ROWS = [{0: 1.05}, {0: -1.0}, {0: 1.1}]
# Each row sums to exactly 1.0, so e = 0, but the pair sums round up: to
# 2 + 1 ulp for the first pair and 2 + 2 ulp for the last, both at d = 1.
# Only the margin keeps the last pair from being skipped.
ROUNDING_ROWS = [{0: 1.0}, dict(enumerate([0.39, 0.39, 0.22], start=1)),
                 dict(enumerate([0.11, 0.13, 0.1, 0.14, 0.1, 0.14, 0.28],
                                start=4))]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(quotient_kernels(), st.integers(0, 2))
@example(hand_built_kernel(1, SIGNED_ROWS), 0)
@example(hand_built_kernel(2, SIGNED_ROWS), 0)
@example(hand_built_kernel(3, SIGNED_ROWS), 0)
@example(hand_built_kernel(1, ROUNDING_ROWS), 0)
# past the all-pairs cap: edges plus the seeded sample
@example(pou_kernel(balls_cover(grid_space(2, 20), 2), 2), 0)
@example(tree_kernel_tent(tree_ball(3, 10), 4, 2), 1)
def test_pruned_kernel_stats_matches_oracle(kern, min_interior):
    assert_stats_match_oracle(kern, min_interior)


def permuted_window(space, seed):
    """The same points in a shuffled order: a window of the same size and
    kind whose index pairs lie at other distances."""
    order = list(range(len(space)))
    random.Random(seed).shuffle(order)
    return FiniteMetricSpace(
        [space.points[k] for k in order], space.dist, space.window_tag + " shuffled",
        [space.interior_radius[k] for k in order], geodesic=space.geodesic,
        dist_tag=space.dist_tag, neighbors=space.neighbors, kind=space.kind)


def moved_cover(cover, space):
    """cover's sets, by label, on another window holding the same points."""
    return Cover(space, [[space.index[cover.space.points[i]] for i in s]
                         for s in cover.sets], name=cover.name)


@st.composite
def scan_policies(draw):
    """kernel_stats' policy arguments, with caps low enough that small
    windows take the edges-plus-sample branch."""
    return {"seed": draw(st.integers(0, 3)),
            "sample_pairs": draw(st.sampled_from([0, 50, 400])),
            "all_pairs_cap": draw(st.sampled_from([kernels.ALL_PAIRS_CAP, 10]))}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(random_covers(("line", "plane", "rational", "tree")), st.integers(0, 2),
       st.integers(0, 2), scan_policies(), st.integers(0, 3), st.integers(0, 2 ** 16))
def test_back_to_back_scans_match_unshared_oracle(cover, m1, m2, policy, seed2, shuffle):
    """Kernels scanned one after another share pair plans and support
    radii; each result still equals its own unshared oracle."""
    for p, exact in ((1, False), (2, False), (3, False), (1, True)):
        assert_stats_match_oracle(pou_kernel(cover, p, exact=exact), m1, **policy)
    kern = pou_kernel(cover, 2)
    assert_stats_match_oracle(kern, m2, **policy)
    assert_stats_match_oracle(kern, m2, **dict(policy, seed=seed2))
    # the same rows on two domains of one size
    n, half = len(cover.space), len(cover.space) // 2
    for domain in (range(half), range(n - half, n)):
        assert_stats_match_oracle(Kernel(cover.space, 2, kern.row, domain_indices=domain,
                                         plans=cover._plans),
                                  0, **dict(policy, seed=seed2))
    # every point of this window, then of one of the same size and kind
    assert_stats_match_oracle(kern, 0, **policy)
    other = moved_cover(cover, permuted_window(cover.space, shuffle))
    for p in (1, 3):
        assert_stats_match_oracle(pou_kernel(other, p), 0, **policy)


@settings(max_examples=40, deadline=None, derandomize=True)
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
@given(random_covers(("line", "plane", "rational")),
       st.sampled_from([1, 2, 3, 2.0, 1.5, 2.7]))
def test_pou_rows_equal_reference_builder(cover, p):
    kern = pou_kernel(cover, p)
    for i in range(len(cover.space)):
        # same entries in the same order, bit for bit
        assert list(kern.row(i).items()) == list(reference_pou_row(cover, p, i).items())


def test_second_scan_of_a_cover_measures_no_distance():
    g = grid_space(2, 20)               # past the all-pairs cap
    calls = []
    bare = g.dist

    def counted(a, b):
        calls.append(1)
        return bare(a, b)

    g.dist = counted
    cover = balls_cover(g, 2)
    first = kernel_stats(pou_kernel(cover, 1), min_interior=1)
    assert calls
    calls.clear()
    for p in (2, 3):
        ks = kernel_stats(pou_kernel(cover, p), min_interior=1)
        assert ks.support_radius == first.support_radius
    assert not calls


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
    tree = tree_ball(3, 2, spine_len=4)
    with pytest.raises(ValueError):
        tree_kernel_tent(tree, 16, 2)
    with pytest.raises(ValueError):
        tree_kernel_flat(tree, 20, 1)


@pytest.mark.parametrize("S,p", [(4, 1), (4, 2), (8, 2)])
def test_tent_neighbor_difference_identity(S, p):
    tree = tree_ball(3, 4, spine_len=S + 10)
    kern = tree_kernel_tent(tree, S, p)
    sp = tree.space
    raw = [v for v in tent_profile(S)]
    norm = p_norm(raw, p)
    i, j = sp.index[(0, 1)], sp.index[(0,)]
    d = diff_norm(kern.row(i), kern.row(j), p)
    # adjacent rows differ in p-th power by exactly 2^p (2 floor(S/2) + 2)
    assert d ** p * norm ** p == pytest.approx(2 ** p * (2 * (S // 2) + 2), rel=1e-9)


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
        ks = kernel_stats(kern, seed=1, sample_pairs=3000)
        assert ks.lipschitz <= 8.0 / S + 1e-9


def test_flat_kernel_examples():
    tree = tree_ball(3, 4)
    kern1 = tree_kernel_flat(tree, 1, 1)
    row = kern1.row(tree.space.index[(0, 0)])
    assert row == {tree.space.index[(0, 0)]: 1.0}
    for p in (1, 2):
        kern = tree_kernel_flat(tree, 8, p)
        i, j = tree.space.index[()], tree.space.index[-1]
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
        ks = kernel_stats(kern, seed=0, sample_pairs=2000)
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


def rational_window(points, tag):
    from coarse_embed.spaces import l1_dist
    rad = max(sum(abs(c) for c in p) for p in points)
    radii = [rad - sum(abs(c) for c in p) for p in points]
    return FiniteMetricSpace(points, l1_dist, tag, radii,
                             dist_tag="l1-rational", kind="rational")


def test_pullback_kernel_identity_map(small_grid):
    cover = balls_cover(small_grid, 2)
    kern = pou_kernel(cover, 1, exact=True)
    pairs = [(small_grid.points[i], small_grid.points[i + 7]) for i in range(0, 80, 9)]
    sigma, report = pullback_kernel(lambda p: p, small_grid, kern, pairs=pairs)
    assert report["norm_error"] == 0
    assert report["contraction_margin"] <= 0
    assert report["support_ok"]
    i = 11
    assert sigma.row(i) == kern.row(i)


def test_pullback_kernel_through_embedding_exact():
    grid = grid_space(2, 4)
    image = [embed_grid_point(z) for z in grid.points]
    extra = []
    for z in [(1, 1), (-2, 0), (0, 3)]:
        base = embed_grid_point(z)
        bumped = (base[0] + Fraction(1, 3), base[1] - Fraction(1, 3),
                  base[2], base[3])
        extra.append(bumped)
    target = rational_window(image + extra, "plane sample")
    cover_sets = {}
    from coarse_embed.lattice import LatticeCoverSpec, membership
    spec = LatticeCoverSpec.standard(4, scale=2)
    for idx, y in enumerate(target.points):
        for key in membership(y, spec):
            cover_sets.setdefault(key, []).append(idx)
    cover = Cover(target, list(cover_sets.values()), name="plane cells")
    kern = pou_kernel(cover, 1, exact=True)
    rng = random.Random(2)
    pairs = [(rng.choice(grid.points), rng.choice(grid.points)) for _ in range(150)]
    pairs = [(a, b) for a, b in pairs if a != b]
    sigma, report = pullback_kernel(embed_grid_point, grid, kern, pairs=pairs)
    assert report["norm_error"] == 0                  # exact rationals
    assert report["contraction_margin"] <= 0
    assert report["support_ok"]
    assert float(report["rho_f_at_support"]) <= 3.0 * float(report["support_radius_xi"])


def test_epsilon_profile_monotone_with_interpolation_column():
    from coarse_embed.kernels import epsilon_profile_upper
    tree = tree_ball(3, 7)

    def builder(S):
        kern = tree_kernel_tent(tree, int(S), 2)
        return kern, kernel_stats(kern, seed=0, sample_pairs=500)

    rows = epsilon_profile_upper([2, 4, 8, 16], 2, builder,
                                 mazur_reference=(0.0, lambda S: 8.0 / S))
    uppers = [r["eps_upper"] for r in rows]
    assert uppers == sorted(uppers, reverse=True)
    assert "mazur_bound" in rows[-1]      # 16 >= e^2
    assert "mazur_bound" not in rows[0]   # 2 < e^2


def test_pullback_kernel_rejects_non_injective():
    g = grid_space(1, 2)
    cover = Cover(g, [list(range(len(g)))])
    kern = pou_kernel(cover, 1)
    with pytest.raises(ValueError):
        pullback_kernel(lambda p: (0,), g, kern, pairs=None)
