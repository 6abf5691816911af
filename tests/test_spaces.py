import functools
import math
import random
from array import array
from collections import deque
from fractions import Fraction
from itertools import combinations, islice

import pytest
# derandomized tests also pin @seed, so an edit does not change their examples
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarse_embed.covers import (Cover, boundary_distance, lebesgue_condition,
                                 set_diameter)
from coarse_embed.errors import CapExceeded
from coarse_embed.kernels import Kernel, kernel_stats, tree_kernel_tent
from coarse_embed.lamplighter import lamplighter_ball
from coarse_embed.spaces import (FiniteMetricSpace, _grid_shell_offsets,
                                 clear_denominators, grid_space, l1_dist, lattice_window,
                                 rational_window, ray, ray_domain, ray_meet, tree_ball,
                                 tree_dist)
from conftest import rebuilt


def test_grid_line_basics():
    g = grid_space(1, 1)
    assert len(g) == 3
    assert g.dist((-1,), (1,)) == 2
    assert g.radius_of((0,)) == 1
    assert g.radius_of((1,)) == 0


def test_grid_plane_basics():
    g = grid_space(2, 1)
    assert len(g) == 9
    assert g.dist((-1, -1), (1, 1)) == 4


def test_grid_point_count_and_triangles():
    g = grid_space(2, 40)
    assert len(g) == 81 * 81 == 6561
    rng = random.Random(11)
    pts = g.points
    for _ in range(100):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert g.dist(a, c) <= g.dist(a, b) + g.dist(b, c)
        assert g.dist(a, b) == g.dist(b, a)


@settings(max_examples=300, deadline=None, derandomize=True)
@seed(31299682214653078980435024461172334826641039627022400427430499449646966504610544017189126480177117734522798426348700)
@given(st.lists(st.tuples(st.integers(-10 ** 20, 10 ** 20),
                          st.integers(-10 ** 20, 10 ** 20)), min_size=1, max_size=8))
def test_l1_dist_matches_generator_sum(coords):
    a, b = zip(*coords)
    assert l1_dist(a, b) == sum(abs(x - y) for x, y in zip(a, b))


def test_grid_cap_guard():
    with pytest.raises(CapExceeded):
        grid_space(6, 40)


def labels(space, ids):
    return [space.points[j] for j in ids]


def test_grid_shells_partition_ball():
    g = grid_space(2, 6)
    c = g.index[(1, -2)]
    seen = set()
    for r in range(4):
        for q in labels(g, g.shell(c, r)):
            assert g.dist((1, -2), q) == r
            seen.add(q)
    assert seen == set(labels(g, g.closed_ball(c, 3)))


def shuffled(space, rng):
    """The same points, radii and metric in a shuffled order."""
    order = list(range(len(space)))
    rng.shuffle(order)
    return FiniteMetricSpace(
        [space.points[k] for k in order], space.dist, space.window_tag + " shuffled",
        [space.interior_radius[k] for k in order], geodesic=space.geodesic,
        kind=space.kind)


@functools.cache
def shell_window(name):
    """Windows of every shell path: grid boxes (index strides), a sparse
    lattice window, a box subspace and a box rebuilt without its strides
    (``box-json``; lookups), a tree, a rebuilt tree (``tree-json``), a
    shuffled tree and a tree subspace (scans, unit edges from ``up``) and a
    lamplighter ball (translated shells)."""
    rng = random.Random(5)
    boxes = {"box1": (1, 5), "box2": (2, 3), "box3": (3, 2)}
    if name in boxes:
        return grid_space(*boxes[name])
    if name == "lattice":
        box = grid_space(2, 4).points
        return lattice_window([p for p in box if rng.random() < 0.8], 2, "sparse")
    if name == "box-subspace":
        box = grid_space(2, 3)
        return box.subspace(rng.sample(box.points, 30))
    if name == "box-json":
        return rebuilt(grid_space(2, 3))
    if name == "tree":
        return tree_ball(3, 3)
    if name == "tree-json":
        return rebuilt(tree_ball(3, 3))
    if name == "tree-shuffled":
        return shuffled(tree_ball(3, 3), rng)
    if name == "tree-subspace":
        tree = tree_ball(3, 3)
        return tree.subspace(rng.sample(tree.points, 15))
    return lamplighter_ball(3, certify=False)


SHELL_WINDOWS = ("box1", "box2", "box3", "lattice", "box-subspace", "box-json",
                 "tree", "tree-json", "tree-shuffled", "tree-subspace", "lamplighter")


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(37747282860707661634993169643700915714927236991799131404573357167845544168599035430979532249411979505134445467634079)
@given(st.data())
def test_index_shells_match_the_distance_scan(data):
    space = shell_window(data.draw(st.sampled_from(SHELL_WINDOWS)))
    radii = space.interior_radius
    boundary = data.draw(st.booleans())
    pool = [i for i in range(len(space)) if (radii[i] == 0) == boundary]
    i = data.draw(st.sampled_from(pool or range(len(space))))
    r = max(0, radii[i] + data.draw(st.integers(-2, 2)))
    shell, ball = space.shell(i, r), space.closed_ball(i, r)
    assert len(set(shell)) == len(shell) and len(set(ball)) == len(ball)
    dists = [space.dist_i(i, j) for j in range(len(space))]
    assert set(shell) == {j for j, d in enumerate(dists) if d == r}
    assert set(ball) == {j for j, d in enumerate(dists) if d <= r}
    if space.kind == "grid":
        # both grid paths list a shell in the order of its ambient offsets
        p = space.points[i]
        order = {off: n for n, off in enumerate(_grid_shell_offsets(len(p), r))}
        steps = [order[tuple(a - b for a, b in zip(space.points[j], p))]
                 for j in shell]
        assert steps == sorted(steps)


def test_tree_small_examples():
    sp = tree_ball(3, 1)
    assert sp.dist((), (0,)) == 1
    assert sp.dist((), -1) == 1
    sp3 = tree_ball(3, 3)
    leaves = [p for p in sp3.points if not isinstance(p, int) and len(p) == 3]
    assert leaves
    assert all(sp3.dist(a, b) <= 6 for a in leaves for b in leaves)


def tree_ball_neighbors(p, branching=2):
    """The ambient labels adjacent to a ``tree_ball`` label: a spine point
    and the points above and below it, or a node, its parent (-1 for the
    root) and its children."""
    if isinstance(p, int):
        return [p - 1, p + 1 if p < -1 else ()]
    return [p[:-1] if p else -1] + [p + (c,) for c in range(branching)]


def bfs_distances(space, source):
    """Graph-metric oracle: BFS over the unit edges of a ``tree_ball``
    window, walked on the labels."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        p = queue.popleft()
        for q in tree_ball_neighbors(p):
            if q in space.index and q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def test_tree_metric_equals_bfs():
    sp = tree_ball(3, 6)
    rng = random.Random(3)
    for _ in range(12):
        src = rng.choice(sp.points)
        oracle = bfs_distances(sp, src)
        assert len(oracle) == len(sp)
        for q in rng.sample(sp.points, 60):
            assert oracle[q] == sp.dist(src, q)


def test_tree_deep_metric_spotcheck_bfs():
    sp = tree_ball(3, 12)
    oracle = bfs_distances(sp, ())
    rng = random.Random(5)
    for q in rng.sample(sp.points, 300):
        assert oracle[q] == sp.dist((), q)


def ray_point(label, t):
    """Label oracle: the point t steps from label along the direction to
    infinity, by arithmetic on the label."""
    if t == 0:
        return label
    if isinstance(label, int):
        return label - t
    if t <= len(label):
        return label[:len(label) - t]
    return -(t - len(label))


def test_ray_points_walk_to_infinity():
    label = (0, 1, 0)
    walk = [ray_point(label, t) for t in range(8)]
    assert walk[0] == label
    assert walk[3] == ()
    assert walk[4] == -1
    for a, b in zip(walk, walk[1:]):
        assert tree_dist(a, b) == 1
    assert tree_dist(label, walk[7]) == 7


def ray_windows():
    """(depth, window): tree_ball(3, depth) for depth = 1..4 and seeded
    subspaces of it, some in shuffled order."""
    rng = random.Random(9)
    for depth in (1, 2, 3, 4):
        tree = tree_ball(3, depth)
        yield depth, tree
        for _ in range(4):
            keep = rng.sample(tree.points, rng.randrange(1, len(tree) + 1))
            yield depth, tree.subspace(keep)
            yield depth, shuffled(tree.subspace(keep), rng)


def test_up_walk_matches_the_label_oracle():
    # t runs one past the longest ray, a leaf's 3 * depth
    for depth, space in ray_windows():
        for i, label in enumerate(space.points):
            for t in range(3 * depth + 2):
                steps = [ray_point(label, s) for s in range(t + 1)]
                want = ([space.index[q] for q in steps]
                        if all(q in space.index for q in steps) else None)
                assert ray(space, i, t) == want, (space.window_tag, label, t)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_ray_domain_is_the_closed_form(depth):
    # a ray of length l stays inside from a tree node while
    # l <= len(label) + 2 depth, and from spine point -j while
    # l <= 2 depth - j; the lengths run one past the longest ray
    tree = tree_ball(3, depth)
    room = [len(p) + 2 * depth if isinstance(p, tuple) else 2 * depth + p
            for p in tree.points]
    for length in range(3 * depth + 2):
        expected = [i for i, r in enumerate(room) if r >= length]
        assert ray_domain(tree, length) == expected, length
    assert ray_domain(tree, 3 * depth + 1) == []


def gap_window():
    """A tree subspace whose points (0, 0) and (0,) walk to the missing
    root: their rays of length 4 end at -2 and -3, inside."""
    return tree_ball(3, 3).subspace([(0, 0), (0,), -2, -1, -3])


def test_ray_domain_rejects_rays_with_a_gap():
    sub = gap_window()
    assert ray_domain(sub, 4) == []
    with pytest.raises(ValueError, match="window too shallow"):
        tree_kernel_tent(sub, 4, 1)


def test_ray_reach_matches_the_ray_walk():
    # the label oracle walks each ray until its next point is missing
    windows = [space for _, tree in ray_windows()
               for space in (tree, rebuilt(tree))]
    for space in [*windows, gap_window()]:
        reach = space.ray_reach
        assert isinstance(reach, array) and reach.typecode == "i"
        for i, label in enumerate(space.points):
            t = 0
            while ray_point(label, t + 1) in space.index:
                t += 1
            assert reach[i] == t, (space.window_tag, label)
            assert ray(space, i, t) is not None and ray(space, i, t + 1) is None
        for length in range(max(reach, default=0) + 2):
            assert ray_domain(space, length) == [
                i for i in range(len(space)) if reach[i] >= length]
    assert list(gap_window().ray_reach) == [1, 0, 1, 2, 0]


def ray_meet_oracle(space, i, j, length):
    """The first index of i's ray that j's ray also holds, as (its step on
    i's ray, its step on j's ray), each ray from ``ray`` as far as it stays
    in the window, up to length; None when the two share no index."""
    def longest(k):
        t = length
        while ray(space, k, t) is None:
            t -= 1
        return ray(space, k, t)

    ri, rj = longest(i), longest(j)
    a = next((a for a, k in enumerate(ri) if k in rj), None)
    return None if a is None else (a, rj.index(ri[a]))


# tree_ball windows, fresh rebuilds of them, and seeded subspaces of them,
# some shuffled (from ray_windows)
MEET_WINDOWS = [(depth, space) for depth, tree in ray_windows()
                for space in (tree, rebuilt(tree))]


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(637177458097474706822615639056001940760957801563310476839670131508452687010196425579453062075717377162873410270010)
@given(st.data())
def test_ray_meet_matches_the_ray_oracle(data):
    depth, space = data.draw(st.sampled_from(MEET_WINDOWS))
    i = data.draw(st.integers(0, len(space) - 1))
    j = data.draw(st.one_of(st.just(i), st.integers(0, len(space) - 1)))
    # lengths run one past the longest ray, a leaf's 3 * depth
    length = data.draw(st.integers(0, 3 * depth + 1))
    want = ray_meet_oracle(space, i, j, length)
    assert ray_meet(space, i, j, length) == want
    assert ray_meet(space, j, i, length) == (None if want is None else want[::-1])


def test_ray_meet_examples():
    tree = tree_ball(3, 3)
    at = tree.index.__getitem__
    assert ray_meet(tree, at((0, 1)), at((0, 1)), 0) == (0, 0)
    assert ray_meet(tree, at((0, 1, 0)), at((0, 0)), 3) == (2, 1)
    assert ray_meet(tree, at((0, 1, 0)), at(-2), 5) == (5, 0)
    # apart beyond the length: the meeting (5, 0) needs 5 steps from (0, 1, 0)
    assert ray_meet(tree, at((0, 1, 0)), at(-2), 4) is None
    assert ray_meet(tree, at(-2), at((0, 1, 0)), 4) is None
    # the rays meet at the root, which the subspace lacks
    sub = tree.subspace([(0,), (1,), -1])
    assert ray_meet(sub, sub.index[(0,)], sub.index[(1,)], 5) is None
    assert ray_meet(sub, sub.index[(0,)], sub.index[-1], 5) is None


def test_tour_intervals_are_the_up_walk_ancestors():
    # forests included: subspaces with gaps have one root per piece
    windows = [space for _, tree in ray_windows() for space in (tree, rebuilt(tree))]
    for space in [*windows, gap_window()]:
        tin, tout = space.tour
        assert sorted(tin) == list(range(len(space)))
        for i in range(len(space)):
            above, k = set(), i
            while k is not None:
                above.add(k)
                k = space.up[k]
            assert {j for j in range(len(space)) if tin[j] <= tin[i] < tout[j]} == above
    assert sum(u is None for u in gap_window().up) == 2


def tour_window(depth, drop_seed):
    """tree_ball(3, depth), or (drop_seed not None) a subspace of it in
    shuffled order without the root: (0,), (1,) and the spine are then
    separate trees, and a seeded share of the other points is dropped."""
    tree = tree_ball(3, depth)
    if drop_seed is None:
        return tree
    rng = random.Random(drop_seed)
    keep = [q for q in tree.points
            if q in ((0,), (1,), -1) or (q != () and rng.random() < 0.7)]
    return shuffled(tree.subspace(keep), rng)


def relatives(space, i):
    """Index lists around point i: its label ancestors (whether or not the
    window joins them to i), itself, its label descendants, its siblings
    and the spine points."""
    points, label = space.points, space.points[i]
    return [
        [j for j, q in enumerate(points) if q != label
         and ray_point(label, tree_dist(label, q)) == q],
        [i],
        [j for j, q in enumerate(points) if q != label
         and ray_point(q, tree_dist(q, label)) == label],
        [j for j, q in enumerate(points) if q != label
         and ray_point(q, 1) == ray_point(label, 1)],
        [j for j, q in enumerate(points) if isinstance(q, int)],
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(198549397986980227546233805761507433797725732887511311186064516093120940703)
@given(st.integers(1, 6), st.one_of(st.none(), st.integers(0, 2 ** 16)), st.data())
def test_tree_farthest_matches_tree_dist(depth, drop_seed, data):
    """A tree window's farthest reads ancestor keys from its tour and
    measures the others; over any mix of ancestors, the point, descendants,
    siblings and spine points, passed as a list, a dict or a one-pass
    islice, it is the largest tree_dist, and 0 over no keys."""
    space = tour_window(depth, drop_seed)
    if drop_seed is not None:
        assert sum(u is None for u in space.up) >= 3
    points = space.points
    i = data.draw(st.integers(0, len(space) - 1))
    keys = [j for group in relatives(space, i) if group
            for j in data.draw(st.lists(st.sampled_from(group), max_size=3))]
    keys += data.draw(st.lists(st.integers(0, len(space) - 1), max_size=2))
    keys = data.draw(st.permutations(keys))
    want = max((tree_dist(points[i], points[j]) for j in keys), default=0)
    form = data.draw(st.sampled_from(["list", "dict", "islice"]))
    passed = {"list": keys, "dict": dict.fromkeys(keys, 1.0),
              "islice": islice(iter(keys), 0, None)}[form]
    assert space.farthest(i, passed) == want
    assert space.farthest(i, ()) == 0


@pytest.mark.parametrize("name", SHELL_WINDOWS)
def test_unit_edges_are_the_pairs_at_distance_one(name):
    space = shell_window(name)
    first, second = space.unit_edges
    n = len(space)
    scan = [(i, j) for i, j in combinations(range(n), 2) if space.dist_i(i, j) == 1]
    from_shells = [(i, j) for i in range(n) for j in sorted(space.shell(i, 1)) if j > i]
    assert list(zip(first, second)) == scan == from_shells
    assert space.unit_edges is space.unit_edges      # collected once


def test_json_round_tripped_tree_gives_the_same_kernel_stats():
    tree = tree_ball(3, 8)
    back = rebuilt(tree)
    assert back.geodesic and back.kind == "tree"
    assert kernel_stats(tree_kernel_tent(back, 4, 2)) == kernel_stats(
        tree_kernel_tent(tree, 4, 2))


SPINE = 8


def spine_path(label):
    """The label as a path down from the spine point -SPINE."""
    if isinstance(label, int):
        return ("s",) * (SPINE + label)
    return ("s",) * SPINE + label


def common_prefix_dist(a, b):
    """Tree distance by definition: both paths climb to their meet."""
    pa, pb = spine_path(a), spine_path(b)
    common = 0
    while common < min(len(pa), len(pb)) and pa[common] == pb[common]:
        common += 1
    return len(pa) + len(pb) - 2 * common


tree_labels = st.one_of(st.lists(st.integers(0, 2), max_size=7).map(tuple),
                        st.integers(-SPINE, -1))


@st.composite
def tree_label_pairs(draw):
    """Any two labels, an ancestor and its descendant, or two nodes below
    sibling children, in either order."""
    a = draw(tree_labels)
    kind = draw(st.sampled_from(("any", "ancestor", "siblings")))
    if kind == "any" or not isinstance(a, tuple):
        b = draw(tree_labels)
    elif kind == "ancestor":
        b = a[:draw(st.integers(0, len(a)))]
    else:
        c = draw(st.integers(0, 2))
        below = draw(st.lists(st.integers(0, 2), max_size=3))
        b = a + ((c + 1) % 3,) + tuple(below)
        a = a + (c,) + tuple(draw(st.lists(st.integers(0, 2), max_size=3)))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(27836369245789848149869466635129233006370275409738341543355526928982373464100009020982591309049177828446633307011151)
@given(tree_label_pairs())
def test_tree_dist_is_the_common_prefix_distance(pair):
    a, b = pair
    assert tree_dist(a, b) == common_prefix_dist(a, b) == tree_dist(b, a)


def test_tree_interior_radius_reflects_missing_neighbors():
    sp = tree_ball(3, 4)
    assert sp.radius_of(()) == 1          # spine side subtrees are absent
    assert sp.radius_of((0,)) == 2
    assert sp.radius_of((0, 0, 0, 0)) == 0
    assert sp.radius_of(-2) == 0


def test_tree_subspace_shells_follow_the_metric():
    # two leaves 6 apart with no window edge between them: a walk along
    # edges would find nothing around either
    sub = tree_ball(3, 3).subspace([(0, 0, 0), (1, 1, 1)])
    a, b = sub.index[(0, 0, 0)], sub.index[(1, 1, 1)]
    assert labels(sub, sub.closed_ball(a, 6)) == [(0, 0, 0), (1, 1, 1)]
    assert labels(sub, sub.shell(b, 6)) == [(0, 0, 0)]
    assert labels(sub, sub.closed_ball(a, 5)) == [(0, 0, 0)]
    sp = tree_ball(3, 4)
    rng = random.Random(4)
    for _ in range(20):
        sub = sp.subspace(rng.sample(sp.points, 12))
        x = rng.choice(sub.points)
        for r in range(10):
            assert sorted(labels(sub, sub.shell(sub.index[x], r)), key=str) == sorted(
                (q for q in sub.points if tree_dist(x, q) == r), key=str)


def test_lattice_window_interior_radii():
    pts = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    w = lattice_window(pts, 2, "box sample")
    assert w.radius_of((0, 0)) == 2
    assert w.radius_of((2, 2)) == 0
    sparse = lattice_window([(0, 0), (5, 5)], 2, "sparse")
    assert sparse.radius_of((0, 0)) == 0


def test_lattice_window_rejects_rational_coordinates():
    # as a grid window the half-spaced line would claim integer distances:
    # closed_ball((0,), 1) would be {-1, 0, 1} and the interior radius of
    # 0 would read 4
    half_line = [(Fraction(k, 2),) for k in range(-8, 9)]
    with pytest.raises(ValueError):
        lattice_window(half_line, 1, "half line")


# boxes and sparse lattice windows of 1-4 coordinates keep signed-sum
# columns; the 9-coordinate window is past them and scans distances
COLUMN_WINDOWS = [("box", k) for k in range(1, 5)] + [
    ("sparse", k) for k in (1, 2, 3, 4, 9)]


@functools.cache
def column_window(kind, k):
    if kind == "box":
        return grid_space(k, {1: 8, 2: 4, 3: 2, 4: 1}[k])
    rng = random.Random(k)
    pts = sorted({tuple(rng.randrange(-6, 7) for _ in range(k)) for _ in range(60)})
    return lattice_window(pts, k, f"sparse Z^{k} sample")


@settings(max_examples=300, deadline=None, derandomize=True)
@seed(370056325472502096799664655695133115494540672224708541726249313670398584590245958342442032939535589134568393204066)
@given(st.sampled_from(COLUMN_WINDOWS), st.data())
def test_signed_sum_columns_match_l1(name, data):
    """Set diameters, farthest keys and kernel support radii read from the
    signed-sum columns equal their all-pairs l1 values, and a window past
    8 coordinates has no columns."""
    space = column_window(*name)
    assert (space.signed_sums is None) == (name[1] > 8)
    points, n = space.points, len(space)
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=25, unique=True)
    s = data.draw(ids)
    value, (a, b) = set_diameter(space, s)
    assert value == max(l1_dist(points[i], points[j]) for i in s for j in s)
    assert {space.index[a], space.index[b]} <= set(s)
    assert l1_dist(a, b) == value
    # keys need not hold the point; a one-pass iterator is read once
    i = data.draw(st.integers(0, n - 1))
    assert space.farthest(i, iter(s)) == max(l1_dist(points[i], points[j]) for j in s)
    assert space.farthest(i, ()) == 0
    rows = data.draw(st.dictionaries(st.integers(0, n - 1), ids, min_size=1,
                                     max_size=6))
    kern = Kernel(space, 1, lambda i: dict.fromkeys(rows[i], 1.0),
                  domain_indices=rows)
    radii = {i: max(l1_dist(points[i], points[j]) for j in keys)
             for i, keys in rows.items()}
    worst, at = kern.support_radius()
    assert kern._radii == radii
    assert worst == max(radii.values())
    assert at == min(i for i, r in radii.items() if r == worst)


def test_signed_sums_only_on_grids():
    # the mask's bit b is the sign of coordinate b + 2
    assert grid_space(3, 1).signed_sums[0][-1] == 1 - 1 - 1
    assert grid_space(3, 1).signed_sums[3][-1] == 3
    assert rebuilt(grid_space(2, 2)).signed_sums == grid_space(2, 2).signed_sums
    for space in (tree_ball(3, 3), lamplighter_ball(2, certify=False),
                  rational_window([(Fraction(1, 2), 0), (1, Fraction(1, 3))], [0, 0],
                                  "two rational points")):
        assert space.signed_sums is None


# ---------------------------------------------------------------------------
# rational windows against Fraction-label oracles

RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 8))


@st.composite
def rational_cases(draw):
    """A rational window of at most 40 points of Q^k (k = 1..3), with
    denominators 1..8 mixed and interior radii 0..2, and a few index sets."""
    k = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[RATIONALS] * k), min_size=2, max_size=40,
                        unique=True))
    radii = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    ids = st.sets(st.integers(0, len(pts) - 1), min_size=1)
    sets = draw(st.lists(ids, min_size=1, max_size=4))
    return rational_window(pts, radii, "rational sample"), sets


def label_boundary_distance(space, i, members, cap):
    best = cap
    for j, q in enumerate(space.points):
        if j not in members:
            d = l1_dist(space.points[i], q)
            if d < best:
                best = d
    return best


def label_lebesgue_condition(cover, r):
    space = cover.space
    for i, p in enumerate(space.points):
        if space.interior_radius[i] < r - 1:
            continue
        ball = {j for j, q in enumerate(space.points) if l1_dist(p, q) < r}
        if not any(ball <= cover.frozen[sid] for sid in cover.membership()[i]):
            return p
    return None


def same(a, b):
    return a == b and type(a) is type(b)


def lcm_clearing(values):
    """Clearing by one lcm over every denominator, with no integer path."""
    dens = [v.denominator for v in values]
    D = math.lcm(*dens)
    return D, [v.numerator * (D // d) for v, d in zip(values, dens)]


def test_clear_denominators_keeps_integers_as_ints():
    for values in ([3, -7, 0, 12], [Fraction(3), Fraction(-7, 1), 0, Fraction(12)]):
        D, nums = clear_denominators(values)
        assert same(D, 1)
        assert nums == [3, -7, 0, 12] and all(type(v) is int for v in nums)
    mixed = [Fraction(1, 2), 3, Fraction(-5, 6), Fraction(4), -2, Fraction(7, 4)]
    D, nums = clear_denominators(mixed)
    assert (D, nums) == lcm_clearing(mixed) == (12, [6, 36, -10, 48, -24, 21])
    assert same(D, 12) and all(type(v) is int for v in nums)
    assert clear_denominators([]) == (1, [])


WHOLES = st.one_of(st.integers(-24, 24), st.builds(Fraction, st.integers(-24, 24)))


@settings(max_examples=100, deadline=None, derandomize=True)
@seed(94934895733099190270949182280395777697124628550619209217597498898406737944594438600590562923219107277541683096035)
@given(st.sampled_from([WHOLES, RATIONALS]).flatmap(
    lambda coords: st.lists(st.tuples(coords, coords), min_size=2, max_size=30,
                            unique=True)))
def test_rational_window_clearing_matches_lcm_clearing(pts):
    # whole-number windows take clear_denominators' integer path
    space = rational_window(pts, [0] * len(pts), "clearing sample")
    D, flat = lcm_clearing([c for p in space.points for c in p])
    it = iter(flat)
    assert same(space.denominator, D)
    assert space.numerators == [tuple(islice(it, len(p))) for p in space.points]
    assert all(type(v) is int for t in space.numerators for v in t)


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(28067833031905860796743985289269557989720595456306750258960184885184431837312346213480716616442220442020439191712732)
@given(rational_cases())
def test_rational_window_distances_match_labels(case):
    space, _ = case
    back = rebuilt(space)
    assert back.points == space.points and back.kind == "rational"
    for w in (space, back):
        for i, a in enumerate(w.points):
            for j, b in enumerate(w.points):
                assert same(w.dist_i(i, j), l1_dist(a, b))


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(22547109607229901900374175658314625613160420987543493690821905280053656425431293254004595293188381293807471273907975)
@given(rational_cases())
def test_rational_window_scans_match_label_oracles(case):
    space, sets = case
    for ids in sets:
        members = frozenset(ids)
        for i in ids:
            cap = space.interior_radius[i] + 1
            assert same(boundary_distance(space, i, (members,), cap),
                        label_boundary_distance(space, i, members, cap))
        diameter, (a, b) = set_diameter(space, sorted(ids))
        labels = [space.points[i] for i in ids]
        want = max((l1_dist(x, y) for x, y in combinations(labels, 2)), default=0)
        assert same(diameter, want)
        assert a in labels and b in labels and l1_dist(a, b) == diameter
    # several sets reach as far as the farthest-reaching one
    frozen = [frozenset(ids) for ids in sets]
    for i in range(len(space)):
        cap = space.interior_radius[i] + 1
        assert same(boundary_distance(space, i, frozen, cap),
                    max(label_boundary_distance(space, i, m, cap) for m in frozen))
    cover = Cover(space, sets)
    for r in (1, 2, 3):
        assert lebesgue_condition(cover, r) == label_lebesgue_condition(cover, r)
