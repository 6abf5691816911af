import functools
import itertools
import random
from fractions import Fraction

import pytest
# derandomized tests also pin @seed, so an edit does not change their examples
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from coarse_embed.covers import (Cover, Envelopes, balls_cover,
                                 boundary_distance, certified_lebesgue,
                                 check_pullback_inequalities, cover_stats,
                                 delta_consistency_report, extend_by_cosets,
                                 grouped_cover, interval_cover,
                                 lebesgue_condition, mesh, multiplicity,
                                 pullback_cover, set_diameter)
from coarse_embed.errors import CoverageError
from coarse_embed.lamplighter import (lamp_coordinates, block_window,
                                      lamplighter_ball)
from coarse_embed.lattice import canonical_spec, zk_cover
from coarse_embed.spaces import (FiniteMetricSpace, grid_space,
                                 lattice_window, rational_window, tree_ball)


def test_single_set_cover_stats():
    g = grid_space(2, 5)
    cover = Cover(g, [list(range(len(g)))], name="everything")
    st = cover_stats(cover)
    assert st.multiplicity == 1
    assert st.mesh == 20          # diameter of the window
    # every certifiable level holds, so the value is the window cap
    assert st.lebesgue == g.max_interior_radius() + 1
    assert st.lebesgue_truncated
    assert st.delta[2] == pytest.approx(st.lebesgue / 1.0)


def test_interval_cover_statistics(line_window):
    cover = interval_cover(line_window)
    st = cover_stats(cover)
    assert st.multiplicity == 2
    assert st.mesh == 2
    assert st.lebesgue == 1
    assert not st.lebesgue_truncated
    assert st.delta[1] == pytest.approx(1 / 2 ** 2)


def test_interval_cover_level_two_fails_at_odd_points(line_window):
    cover = interval_cover(line_window)
    witness = lebesgue_condition(cover, 2)
    assert witness is not None
    assert witness[0] % 2 != 0


def test_balls_cover_radius_half_gives_singletons():
    g = grid_space(1, 10)
    cover = balls_cover(g, 0.5)
    st = cover_stats(cover)
    assert st.multiplicity == 1
    assert st.mesh == 0


def test_balls_cover_on_plane():
    g = grid_space(2, 8)
    cover = balls_cover(g, 2)
    st = cover_stats(cover)
    assert st.multiplicity == 13        # lattice ball of radius 2
    assert st.mesh == 4
    assert st.lebesgue == 3             # open 3-ball is the closed 2-ball
    bound = 2 ** (2.0 / 1 - 1) * 13 ** (-2.0 / 1) * 4 ** (1 - 2 * 2 / 1.0)
    assert st.delta[1] >= bound         # polynomial-growth floor, p = 1


def test_coverage_error_carries_witness():
    g = grid_space(1, 3)
    with pytest.raises(CoverageError) as err:
        Cover(g, [[0, 1, 2]], name="partial").check_coverage()
    assert err.value.witness in g.points


def test_multiplicity_and_mesh_against_bruteforce():
    g = grid_space(2, 4)
    rng = random.Random(21)
    for _ in range(20):
        sets = []
        for _ in range(rng.randrange(3, 7)):
            size = rng.randrange(1, 12)
            sets.append(rng.sample(range(len(g)), size))
        cover = Cover(g, sets)
        mult, _ = multiplicity(cover)
        counts = [0] * len(g)
        for s in sets:
            for i in set(s):
                counts[i] += 1
        assert mult == max(counts)
        value, exact, (sid, (a, b)) = mesh(cover)
        assert exact
        brute = max(
            max((g.dist_i(i, j) for i in s for j in s), default=0) for s in sets)
        assert value == brute
        # the witness pair lies in its set, at distance mesh
        assert {g.index[a], g.index[b]} <= set(sets[sid])
        assert g.dist(a, b) == value


def brute_diameter(space, ids):
    return max(space.dist_i(i, j) for i in ids for j in ids)


@functools.cache
def diameter_window(name):
    """Windows on which set_diameter runs its pivot-pruned scan."""
    rng = random.Random(3)
    if name == "tree":
        return tree_ball(3, 5)
    if name == "lamplighter":
        return lamplighter_ball(4)
    if name == "rational":
        # dimension 10 is past the grid signed-sum fast path (k <= 8)
        pts = sorted({tuple(Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3)))
                            for _ in range(10)) for _ in range(60)})
        return rational_window(pts, [0] * len(pts), "sparse rational window")
    # an l-infinity metric, of no kind
    pts = sorted({tuple(rng.randrange(-6, 7) for _ in range(3)) for _ in range(50)})
    return FiniteMetricSpace(
        pts, lambda a, b: max(abs(x - y) for x, y in zip(a, b)), "l-inf sample",
        [6 - max(map(abs, p)) for p in pts])


@settings(max_examples=300, deadline=None, derandomize=True)
@seed(9778414740786693415781625334615660364849866261443997801597054426260579726844750842096590340075650884017069223665261)
@given(st.sampled_from(["tree", "lamplighter", "rational", "explicit"]),
       st.booleans(), st.data())
def test_set_diameter_matches_all_pairs(name, drop_deepest, data):
    space = diameter_window(name)
    deepest = space.index[space.deepest]
    pool = [i for i in range(len(space)) if not (drop_deepest and i == deepest)]
    ids = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40,
                             unique=True))
    value, (a, b) = set_diameter(space, ids)
    assert value == brute_diameter(space, ids)
    assert {space.index[a], space.index[b]} <= set(ids)
    assert space.dist(a, b) == value


def test_lamplighter_cover_mesh_is_exact():
    ball = lamplighter_ball(4)
    cover = balls_cover(ball, 2)
    st_ = cover_stats(cover)
    assert st_.mesh_exact is True
    assert st_.mesh_witnessed == st_.mesh
    assert st_.mesh == max(brute_diameter(ball, s) for s in cover.sets)


@functools.cache
def scan_window(name):
    return {"grid": lambda: grid_space(2, 3), "tree": lambda: tree_ball(3, 4),
            "lamplighter": lambda: lamplighter_ball(3)}[name]()


def brute_ball(space, i, r):
    return frozenset(j for j in range(len(space)) if space.dist_i(i, j) <= r)


@st.composite
def random_covers(draw):
    """Balls of random centres and radii, sometimes the balls of one radius
    around every point, and a few arbitrary sets; points may stay uncovered."""
    space = scan_window(draw(st.sampled_from(["grid", "tree", "lamplighter"])))
    n = len(space)
    sets = [brute_ball(space, c, r)
            for c, r in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(0, 3)), max_size=6))]
    if draw(st.booleans()):
        r = draw(st.integers(1, 2))
        sets += [brute_ball(space, i, r) for i in range(n)]
    sets += draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=12),
                          min_size=0 if sets else 1, max_size=3))
    return Cover(space, sets, name="random")


def brute_violation(cover, r):
    """The level-r condition read off its definition: the first point, in
    window order, with interior radius >= r - 1 whose closed (r-1)-ball
    lies in no cover set."""
    space = cover.space
    for i, p in enumerate(space.points):
        if space.interior_radius[i] >= r - 1 and not any(
                brute_ball(space, i, r - 1) <= s for s in cover.frozen):
            return p
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(33735577083808067203651833428933974912563335699292730527609854212651668256174717754464926599340176992947650297363344)
@given(random_covers(), st.one_of(st.none(), st.integers(1, 5)))
def test_multiplicity_and_lebesgue_scan_match_definitions(cover, scan_cap):
    space = cover.space
    counts = [sum(i in s for s in cover.frozen) for i in range(len(space))]
    mult, witness = multiplicity(cover)
    assert mult == max(counts) == counts[space.index[witness]]
    cap = space.max_interior_radius() + 1
    if scan_cap is not None:
        cap = min(cap, scan_cap)
    # over a point's owner sets, boundary_distance is the largest r <= cap
    # whose closed (r-1)-ball lies in one of them; 0 with no sets, or with
    # only a set missing the point itself
    everything = frozenset(range(len(space)))
    for i, owners in enumerate(cover.membership()):
        sets = [cover.frozen[sid] for sid in owners]
        reach = 0
        while reach < cap and any(brute_ball(space, i, reach) <= s for s in sets):
            reach += 1
        assert boundary_distance(space, i, sets, cap) == reach
        assert boundary_distance(space, i, (), cap) == 0
        assert boundary_distance(space, i, (everything - {i},), cap) == 0
    # certified: the condition holds at every level 1..value, and the
    # limit is the first point violating value + 1 (None when truncated)
    want = (cap, None)
    for r in range(1, cap + 1):
        witness = brute_violation(cover, r)
        assert lebesgue_condition(cover, r) == witness
        if witness is not None:
            want = (r - 1, witness)
            break
    assert certified_lebesgue(cover, scan_cap=scan_cap) == want


def test_rational_window_lebesgue_uses_the_open_ball():
    # the line at half spacing: the open 1-ball of 0 holds -1/2, 0 and 1/2,
    # which fit in neither set, so 0 has Lebesgue number 1/2 and no level
    # is certified; shells at integer distances alone would certify 2
    pts = [(Fraction(k, 2),) for k in range(-8, 9)]
    line = rational_window(pts, [1 if p == (0,) else 0 for p in pts], "half line")
    half = line.index[(Fraction(1, 2),)]
    everything_but_half = [i for i in range(len(line)) if i != half]
    near_half = [line.index[(x,)] for x in (0, Fraction(1, 2), 1)]
    cover = Cover(line, [everything_but_half, near_half])
    assert lebesgue_condition(cover, 1) == (0,)
    assert lebesgue_condition(cover, 2) == (0,)
    assert certified_lebesgue(cover) == (0, (0,))
    assert sorted(line.points[j] for j in line.closed_ball(line.index[(0,)], 1)) == [
        (Fraction(k, 2),) for k in range(-2, 3)]
    assert len(balls_cover(line, Fraction(1, 2)).sets[8]) == 3


@pytest.mark.parametrize("length,step,anchor", [
    (3, 2, -1), (2, 2, 0), (4, 3, -20), (1, 1, 5), (5, 2, 7), (3, 4, 40)])
def test_interval_cover_matches_brute_force(length, step, anchor):
    # a line with gaps, listed out of order; anchors below and past it
    line = lattice_window([(x,) for x in (4, -7, 0, -4, 9, -1, 3, -5, 5, 12)], 1,
                          "gapped line")
    xs = [p[0] for p in line.points]
    want = []       # by increasing start c, the order of grouped_cover's keys
    for c in range(min(xs) - length, max(xs) + 1):
        if (c - anchor) % step == 0:
            ids = tuple(i for i, x in enumerate(xs) if c <= x < c + length)
            if ids:
                want.append(ids)
    cover = interval_cover(line, length, step, anchor)
    assert cover.sets == want
    assert cover.name == f"intervals len={length} step={step}"


@pytest.mark.parametrize("name", ["tree", "lamplighter"])
def test_balls_cover_matches_brute_force(name):
    space = scan_window(name)
    n = len(space)
    for r in (1, 2, Fraction(5, 2)):
        cover = balls_cover(space, r)
        # the keys are the centres' indices, so set c is the ball of point c
        assert cover.sets == [tuple(sorted(brute_ball(space, c, r))) for c in range(n)]


def test_grouped_cover_orders_sets_by_key():
    g = grid_space(1, 3)
    cover = grouped_cover(g, lambda i: {g.points[i][0] // 2, 9} - {0}, "halves")
    assert cover.name == "halves"
    # keys -2, -1, 1, 9 in that order
    assert cover.sets == [(0,), (1, 2), (5, 6), tuple(range(7))]
    parity = grouped_cover(g, lambda i: [(1 - i % 2, "x")], "parity")
    assert parity.sets == [(1, 3, 5), (0, 2, 4, 6)]


def test_certified_lebesgue_scan_cap():
    g = grid_space(2, 6)
    cover = Cover(g, [list(range(len(g)))])
    level, limit = certified_lebesgue(cover, scan_cap=2)
    assert level == 2 and limit is None


def test_envelopes_are_monotone():
    env = Envelopes((d, (-d) % 3) for d in range(1, 9))
    rho_minus, rho_plus = env.rho_minus, env.rho_plus
    assert all(v1 <= v2 for (_, v1), (_, v2) in zip(rho_minus, rho_minus[1:]))
    assert all(v1 <= v2 for (_, v1), (_, v2) in zip(rho_plus, rho_plus[1:]))
    for (d, lo), (_, hi) in zip(rho_minus, rho_plus):
        assert lo <= hi
    assert env.plus(0.5) == 0
    assert env.minus(0) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@seed(1358793248535930260864749608857128227237726273242564375301622477328536354306017180335276836147940418284120991534305)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30)), min_size=1,
                max_size=20),
       st.sampled_from([1, 2, 3, 4, 6]))
@example([(1, 1), (3, 5)], 1)
def test_envelope_reads_match_their_definitions(rows, den):
    # every t in (0, max d + 1/den] on a grid finer than the distances, so
    # reads at, between, below and above the measured distances are all
    # checked; above them no pair backs rho_minus
    env = Envelopes(rows)
    assert env.rows == sorted(rows)
    top = max(d for d, _ in rows)
    for t in (Fraction(k, den) for k in range(1, top * den + 2)):
        assert env.minus(t) == min((e for d, e in rows if d >= t), default=None)
        assert env.plus(t) == max((e for d, e in rows if d <= t), default=0)
    if rows == [(1, 1), (3, 5)]:
        assert env.minus(10) is None


def envelopes(f, domain, target, pairs):
    """The envelopes of f: domain -> target over the given pairs."""
    return Envelopes((domain.dist(a, b), target.dist(f(a), f(b))) for a, b in pairs)


def test_pullback_minus_reads_pairs_at_or_above_the_mesh():
    # the pulled mesh is 2 and the pairs sit at distances 1 and 5: the
    # compression envelope at 2 is backed by the pair at 5 only
    line = grid_space(1, 6)
    cover = interval_cover(line)
    pulled = pullback_cover(lambda p: p, line, cover)
    env = envelopes(lambda p: p, line, line, [((0,), (1,)), ((0,), (5,))])
    rho = check_pullback_inequalities(env, cover, pulled)
    assert cover_stats(pulled).mesh == rho["orig_mesh"] == 2
    assert rho["rho_minus_at_pulled_mesh"] == 5
    assert not rho["minus_ok"]


def test_pullback_identity_keeps_stats(small_grid):
    cover = balls_cover(small_grid, 2)
    pulled = pullback_cover(lambda p: p, small_grid, cover)
    st, st2 = cover_stats(cover), cover_stats(pulled)
    assert (st.lebesgue, st.multiplicity, st.mesh) == \
        (st2.lebesgue, st2.multiplicity, st2.mesh)


def test_pullback_through_grid_embedding_matches_direct(small_grid):
    # the pullback machinery reproduces the direct lattice cover when fed
    # the membership listing as an abstract cover of the image points
    direct, stats, spec = zk_cover(small_grid, 2, 1)
    pairs = [(a, b) for a in small_grid.points[:40] for b in small_grid.points[:40]
             if a != b]
    rho = check_pullback_inequalities(
        envelopes(lambda p: p, small_grid, small_grid, pairs), direct,
        pullback_cover(lambda p: p, small_grid, direct))
    assert rho["plus_ok"] and rho["minus_ok"]


def test_pullback_through_block_coordinates(ball10):
    # pull a grid cover back through the lamp-coordinate map of the block;
    # the canonical scale guarantees margin 2m around each closed cell, so
    # the certification survives the transfer to the subgroup window
    m = 2
    block = block_window(ball10, m)
    coords = {p: lamp_coordinates(p, m) for p in block.points}
    grid = lattice_window(sorted(set(coords.values())), 2 * m - 1,
                          "block coordinates m=2")
    cover_z, stats_z, _ = zk_cover(grid, 2 * m - 1, 2 * m,
                                   spec=canonical_spec(2 * m - 1, 2 * m),
                                   strict=False)
    pulled = pullback_cover(lambda p: coords[p], block, cover_z)
    st = cover_stats(pulled)
    assert st.mesh <= 16 * m ** 3
    assert st.lebesgue >= 2 * m or st.lebesgue_truncated
    # every pair, so that pairs at the pulled mesh back rho_minus there
    pairs = list(itertools.combinations(block.points, 2))
    env = envelopes(lambda p: coords[p], block, grid, pairs)
    rho = check_pullback_inequalities(env, cover_z, pulled)
    assert rho["plus_ok"] and rho["minus_ok"]


def test_extend_by_cosets_identity_when_window_is_block(ball8):
    m = 6   # central block swallows every lamp pattern of the radius-8 ball
    lamps = ball8.subspace([p for p in ball8.points if p[1] == 0], "cursor0")
    base = Cover(lamps, [list(range(len(lamps)))], name="one")
    extended = extend_by_cosets(base, m, lamps)
    assert len(extended) == 1
    assert sorted(extended.sets[0]) == sorted(base.sets[0])


def test_extend_by_cosets_preserves_mesh_and_multiplicity(ball8):
    m = 2
    lamps = ball8.subspace([p for p in ball8.points if p[1] == 0], "cursor0")
    block_labels = [p for p in lamps.points
                    if all(-m + 1 <= pos <= m - 1 for pos, _ in p[0])]
    block = lamps.subspace(block_labels, "block")
    cover = balls_cover(block, 2)
    st_in = cover_stats(cover)
    extended = extend_by_cosets(cover, m, lamps)
    st_out = cover_stats(extended)
    assert st_out.multiplicity == st_in.multiplicity
    assert st_out.mesh == st_in.mesh
    assert st_out.lebesgue <= min(st_in.lebesgue, 2 * m + 1)


def test_zk_cover_mesh_at_each_lebesgue_target():
    window = grid_space(2, 15)
    meshes = [zk_cover(window, 2, L, strict=False)[1].mesh for L in (1, 2, 3)]
    assert meshes == [0, 10, 10]


def test_delta_consistency_rows():
    g = grid_space(1, 20)
    st = cover_stats(interval_cover(g))
    rows = delta_consistency_report(st)
    assert [r["p"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["mesh_growth_upper_at_L"] == float(st.mesh)
