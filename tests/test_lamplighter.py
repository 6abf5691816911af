import functools
import random

import pytest
# derandomized tests also pin @seed, so an edit does not change their examples
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarse_embed import lamplighter
from coarse_embed.errors import CapExceeded
from coarse_embed.lamplighter import (IDENTITY, bfs_ball, block_window,
                                      coset_key, block_part, generator_moves,
                                      identity_shells, lamp_coordinates,
                                      lamp_parts_window, lamplighter_ball,
                                      label_dist, mul, translated_shell,
                                      word_length)

# the generators t, t^-1, a, a^-1, in generator_moves order
GENERATORS = [((), 1), ((), -1), (((0, 1),), 0), (((0, -1),), 0)]


def elem(lamps, cursor=0):
    """The label of a lamp dict position -> value and a cursor."""
    return tuple(sorted((p, v) for p, v in lamps.items() if v)), cursor


def inv(g):
    """The inverse label: lamps negated and moved back by the cursor."""
    lamps, cursor = g
    return elem({p - cursor: -v for p, v in lamps}, -cursor)


def test_identity_length_zero():
    assert word_length(IDENTITY) == 0


def test_single_lamp_at_cursor():
    assert word_length(elem({0: 1})) == 1


def test_far_lamp_costs_walk_both_ways():
    # light one lamp two steps right, return: t t a t^-1 t^-1
    assert word_length(elem({2: 1})) == 5


def test_length_formula_against_bfs_small():
    depth = bfs_ball(6)
    assert len(depth) == 1125  # certified inside bfs_ball already


def test_group_operations():
    a = elem({0: 1})
    t = elem({}, 1)
    w = mul(mul(mul(t, a), t), a)     # lamps at 1 and 2, cursor 2
    assert w == (((1, 1), (2, 1)), 2)
    assert mul(w, inv(w)) == IDENTITY
    assert word_length(w) == 4


def test_right_multiplication_by_a_generator_is_a_move():
    for g in lamplighter_ball(5).points:
        assert [mul(g, s) for s in GENERATORS] == list(generator_moves(g))


def test_group_law_associative_with_inverses():
    ball = lamplighter_ball(4).points
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = (rng.choice(ball) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, inv(a)) == IDENTITY == mul(inv(a), a)


def test_ball_radius_one():
    ball = lamplighter_ball(1)
    labels = set(ball.points)
    assert len(labels) == 5
    assert (tuple(), 1) in labels and (tuple(), -1) in labels
    assert (((0, 1),), 0) in labels and (((0, -1),), 0) in labels


def test_small_ball_counts_frozen():
    # counts certified against the generator BFS once, then frozen
    assert {r: len(bfs_ball(r)) for r in (1, 2, 3)} == {1: 5, 2: 17, 3: 53}


def test_identity_shells_stop_at_the_cap(monkeypatch):
    # radius 3 holds 53 elements; the 101st, in shell 4, passes a cap of 100
    monkeypatch.setattr(lamplighter, "_IDENTITY_SHELLS", [[IDENTITY]])
    monkeypatch.setenv("COARSE_EMBED_CAP", "100")
    with pytest.raises(CapExceeded, match="^lamplighter ball radius 5 elements: "
                                          "101 exceeds cap 100"):
        identity_shells(5)
    monkeypatch.delenv("COARSE_EMBED_CAP")
    # only complete shells were cached, and growing on from them agrees
    # with a BFS from scratch
    assert lamplighter._IDENTITY_SHELLS == bfs_shells(3)
    assert identity_shells(5) == bfs_shells(5)


def bfs_shells(radius):
    """Shells of a plain BFS from the identity with one visited set."""
    shells, seen = [[IDENTITY]], {IDENTITY}
    for _ in range(radius):
        grown = []
        for g in shells[-1]:
            for h in generator_moves(g):
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
        shells.append(grown)
    return shells


def test_ball_distance_is_word_metric():
    ball = lamplighter_ball(4)
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.choice(ball.points), rng.choice(ball.points)
        assert ball.dist(a, b) == word_length(mul(inv(a), b))


def test_interior_radius_tracks_depth():
    ball = lamplighter_ball(4)
    assert ball.radius_of((tuple(), 0)) == 4
    assert ball.radius_of((tuple(), 4)) == 0


def test_label_dist_symmetry_and_triangle():
    ball = lamplighter_ball(5)
    rng = random.Random(9)
    pts = ball.points
    for _ in range(300):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert label_dist(a, b) == label_dist(b, a)
        assert label_dist(a, c) <= label_dist(a, b) + label_dist(b, c)


@functools.cache
def bfs_depths(radius):
    """Generator-BFS depths of the ball (no closed form involved)."""
    return bfs_ball(radius, certify=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(10020908019251531276270029108184004683561263171218545267543270423168227747910491614510119982966022155244024749046864)
@given(st.data())
def test_label_dist_matches_bfs_depth(data):
    # a^-1 b has length <= 10 for a, b in the radius-5 ball
    ball5 = list(bfs_depths(5))
    a = data.draw(st.sampled_from(ball5))
    b = data.draw(st.sampled_from(ball5))
    assert label_dist(a, b) == bfs_depths(10)[mul(inv(a), b)]


def test_window_shells_are_the_distance_shells():
    ball = lamplighter_ball(6)
    for x in ball.points:
        by_distance = {}
        for q in ball.points:
            by_distance.setdefault(label_dist(x, q), set()).add(q)
        for r in range(4):
            shell = {ball.points[j] for j in ball.shell(ball.index[x], r)}
            assert shell == by_distance.get(r, set())


def test_block_coordinates_round_trip_and_bounds():
    g = elem({-1: 3, 1: -2})
    assert lamp_coordinates(g, 2) == (3, 0, -2)
    with pytest.raises(ValueError):
        lamp_coordinates(elem({2: 1}), 2)
    with pytest.raises(ValueError):
        lamp_coordinates(elem({0: 1}, 1), 2)


def test_coordinate_sandwich_example():
    # one lamp next door: distance 3 in the subgroup, 1 in coordinates
    x = elem({1: 1})
    d_k = word_length(x)
    assert d_k == 3
    v = lamp_coordinates(x, 2)
    l1 = sum(abs(c) for c in v)
    assert l1 == 1
    assert d_k - 4 * (2 - 1) <= l1 <= d_k


@pytest.mark.parametrize("m", [2, 3])
def test_coordinate_sandwich_random_pairs(ball10, m):
    block = block_window(ball10, m)
    rng = random.Random(17)
    labels = block.points
    assert len(labels) > 50
    for _ in range(200):
        a, b = rng.choice(labels), rng.choice(labels)
        va, vb = lamp_coordinates(a, m), lamp_coordinates(b, m)
        l1 = sum(abs(x - y) for x, y in zip(va, vb))
        dk = block.dist(a, b)
        assert dk - 4 * (m - 1) <= l1 <= dk


def test_cosets_partition_and_representatives(ball8):
    m = 2
    parts = lamp_parts_window(ball8)
    keys = {coset_key(p, m) for p in parts.points}
    assert () in keys and len(keys) > 1
    for p in parts.points[:200]:
        key = coset_key(p, m)
        rep = (key, 0)     # the outside lamps, cursor 0
        assert mul(rep, block_part(p, m)) == p


def test_distinct_cosets_far_apart(ball8):
    # distance between different block cosets is at least 2m+1
    m = 2
    parts = lamp_parts_window(ball8)
    rng = random.Random(4)
    pts = parts.points
    checked = 0
    while checked < 300:
        a, b = rng.choice(pts), rng.choice(pts)
        if coset_key(a, m) == coset_key(b, m):
            continue
        assert parts.dist(a, b) >= 2 * m + 1
        checked += 1


# ---------------------------------------------------------------------------
# The one-merge label functions against dict-based oracles


def mul_oracle(a, b):
    """The group law through a lamp dict: b's lamps, shifted by a's cursor,
    added into a's, zero sums deleted, then sorted."""
    (lamps_a, ca), (lamps_b, cb) = a, b
    lamps = dict(lamps_a)
    for p, v in lamps_b:
        w = lamps.get(p + ca, 0) + v
        if w:
            lamps[p + ca] = w
        else:
            del lamps[p + ca]
    return tuple(sorted(lamps.items())), ca + cb


def label_dist_oracle(a, b):
    """Word distance from the difference configuration as a dict: its mass
    plus the shorter of the two walks that cover its support, going left
    first or right first from cursor a and ending at cursor b."""
    lamps_a, ca = a
    lamps_b, cb = b
    da, db = dict(lamps_a), dict(lamps_b)
    mass = 0
    lo = hi = None
    for pos in da.keys() | db.keys():
        v = db.get(pos, 0) - da.get(pos, 0)
        if v:
            mass += v if v > 0 else -v
            if lo is None or pos < lo:
                lo = pos
            if hi is None or pos > hi:
                hi = pos
    wlo = min(ca, cb) if lo is None else min(ca, cb, lo)
    whi = max(ca, cb) if hi is None else max(ca, cb, hi)
    left_first = (ca - wlo) + (whi - wlo) + (whi - cb)
    right_first = (whi - ca) + (whi - wlo) + (cb - wlo)
    return mass + min(left_first, right_first)


def lamp_coordinates_oracle(label, m):
    """Block coordinates read off a lamp dict, position by position."""
    lamps, cursor = label
    if cursor != 0:
        raise ValueError("block elements have cursor 0")
    if not all(-m + 1 <= p <= m - 1 for p, _ in lamps):
        raise ValueError(f"lamp support outside -{m - 1}..{m - 1}")
    d = dict(lamps)
    return tuple(d.get(p, 0) for p in range(-m + 1, m))


def outcome(f, *args):
    """f's value, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# positions and cursors near 0, where shifts interleave lamps, or far
# outside any ball the tests build; values small or past 64 bits
POSITIONS = st.integers(-6, 6) | st.integers(-10**12, 10**12)
VALUES = (st.integers(-3, 3) | st.integers(-10**20, 10**20)).filter(bool)


@st.composite
def labels(draw, positions=POSITIONS, cursors=POSITIONS):
    """A canonical label: any lamp dict (empty too) and a cursor."""
    return elem(draw(st.dictionaries(positions, VALUES, max_size=6)),
                draw(cursors))


@st.composite
def cancelling(draw, a):
    """A label whose lamps cancel some of a's under mul(a, .): a's inverse
    with some lamps dropped or changed, and a few more lamps near them."""
    lamps, cursor = inv(a)
    kept = {p: v for p, v in lamps if draw(st.booleans())}
    for p in draw(st.lists(st.sampled_from([p for p, _ in lamps] or [0]),
                           max_size=2)):
        kept[p] = draw(VALUES)
    shifted = st.integers(-2, 2).map(lambda d: d - a[1])
    kept.update(draw(st.dictionaries(shifted, VALUES, max_size=2)))
    return elem(kept, cursor + draw(st.sampled_from([0, 0, 1, -1])))


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(34)
@given(st.data())
def test_merges_equal_the_dict_oracles(data):
    g, a = data.draw(labels()), data.draw(labels())
    b = data.draw(labels() | cancelling(a))
    assert mul(a, b) == mul_oracle(a, b)
    assert label_dist(a, b) == label_dist_oracle(a, b)
    assert label_dist(b, a) == label_dist_oracle(b, a)
    # left invariance of the word metric
    assert label_dist(mul(g, a), mul(g, b)) == label_dist(a, b)
    m = data.draw(st.integers(1, 13))
    edge = st.sampled_from([-(m - 1), m - 1, -m, m])   # the block's ends and just past
    block = labels(edge | st.integers(-(m - 1), m - 1), st.sampled_from([0, 0, 0, 1]))
    x = data.draw(block | labels())
    assert outcome(lamp_coordinates, x, m) == outcome(lamp_coordinates_oracle, x, m)


def canonical(label):
    """Lamp positions strictly increase, and every value is a nonzero int."""
    lamps, cursor = label
    return (type(cursor) is int
            and all(type(p) is int and type(v) is int and v for p, v in lamps)
            and all(p < q for (p, _), (q, _) in zip(lamps, lamps[1:])))


def test_every_constructor_keeps_labels_canonical():
    ball = lamplighter_ball(6)
    made = list(ball.points)
    for x in ball.points:
        for r in range(4):
            made += translated_shell(x, r)
    made += lamp_parts_window(ball).points
    for m in (1, 2, 3, 6):
        made += [block_part(x, m) for x in ball.points]
        made += [(coset_key(x, m), 0) for x in ball.points]
    assert len(made) > 60_000
    assert all(map(canonical, made))
    assert not canonical((((1, 1), (1, 2)), 0))
    assert not canonical((((2, 1), (1, 2)), 0))
    assert not canonical((((1, 0),), 0))
