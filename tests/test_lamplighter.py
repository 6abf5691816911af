import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_embed.lamplighter import (LamplighterElement, bfs_ball,
                                      block_window, coset_key, block_part,
                                      cursor_zero_ball_labels,
                                      lamp_coordinates, lamp_parts_window,
                                      lamplighter_ball, label_dist,
                                      word_length)


def elem(lamps, cursor=0):
    return LamplighterElement.from_dict(lamps, cursor)


def test_identity_length_zero():
    assert word_length(LamplighterElement.identity()) == 0


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
    w = t.mul(a).mul(t).mul(a)     # lamps at 1 and 2, cursor 2
    assert w.lamp_dict() == {1: 1, 2: 1}
    assert w.cursor == 2
    assert w.mul(w.inv()) == LamplighterElement.identity()
    assert word_length(w) == 4


def test_ball_radius_one():
    ball = lamplighter_ball(1)
    labels = set(ball.points)
    assert len(labels) == 5
    assert (tuple(), 1) in labels and (tuple(), -1) in labels
    assert (((0, 1),), 0) in labels and (((0, -1),), 0) in labels


def test_small_ball_counts_frozen():
    # counts certified against the generator BFS once, then frozen
    assert {r: len(bfs_ball(r)) for r in (1, 2, 3)} == {1: 5, 2: 17, 3: 53}


def test_ball_distance_is_word_metric():
    ball = lamplighter_ball(4)
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.choice(ball.points), rng.choice(ball.points)
        ga = LamplighterElement.from_label(a)
        gb = LamplighterElement.from_label(b)
        assert ball.dist(a, b) == word_length(ga.inv().mul(gb))


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
@given(st.data())
def test_label_dist_matches_bfs_depth(data):
    # a^-1 b has length <= 10 for a, b in the radius-5 ball
    ball5 = list(bfs_depths(5))
    a = data.draw(st.sampled_from(ball5))
    b = data.draw(st.sampled_from(ball5))
    assert label_dist(a.label(), b.label()) == bfs_depths(10)[a.inv().mul(b)]


def test_block_coordinates_round_trip_and_bounds():
    g = elem({-1: 3, 1: -2})
    assert lamp_coordinates(g.label(), 2) == (3, 0, -2)
    with pytest.raises(ValueError):
        lamp_coordinates(elem({2: 1}).label(), 2)
    with pytest.raises(ValueError):
        lamp_coordinates(elem({0: 1}, 1).label(), 2)


def test_coordinate_sandwich_example():
    # one lamp next door: distance 3 in the subgroup, 1 in coordinates
    x = elem({1: 1})
    d_k = word_length(x)
    assert d_k == 3
    v = lamp_coordinates(x.label(), 2)
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


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_cursor_zero_ball_labels_match_bfs(radius):
    direct = sorted(g.label() for g in bfs_ball(radius, certify=False)
                    if g.cursor == 0)
    assert cursor_zero_ball_labels(radius) == direct


def test_cosets_partition_and_representatives(ball8):
    m = 2
    parts = lamp_parts_window(ball8)
    keys = {coset_key(p, m) for p in parts.points}
    assert () in keys and len(keys) > 1
    for p in parts.points[:200]:
        key = coset_key(p, m)
        rep = LamplighterElement(key, 0)     # the outside lamps, cursor 0
        inner = block_part(p, m)
        rebuilt = rep.mul(LamplighterElement.from_label(inner))
        assert rebuilt.label() == p


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
