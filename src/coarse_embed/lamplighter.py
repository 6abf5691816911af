"""The restricted wreath product of the integers with themselves.

Elements are a finitely supported Z -> Z lamp configuration plus a cursor
position.  Generators are the cursor moves t, t^-1 and the lamp increments
a, a^-1 acting at the cursor.  Word length has a closed form: total lamp
mass plus the shortest walk on the line that starts at 0, visits every lit
lamp and ends at the cursor; label_dist computes it between any two
labels, and word_length is label_dist from the identity.  A BFS oracle
over the generators certifies the closed form on every enumerated ball.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import guard_cap
from .spaces import FiniteMetricSpace

_IDENTITY_BALL_CACHE = {}
# largest radius whose ambient shells translated_shell enumerates
SHELL_CAP = 12


@dataclass(frozen=True)
class LamplighterElement:
    """lamps: sorted tuple of (position, nonzero value); cursor: int."""
    lamps: tuple
    cursor: int

    def __post_init__(self):
        assert all(v != 0 for _, v in self.lamps)
        assert list(self.lamps) == sorted(self.lamps)

    @staticmethod
    def identity():
        return LamplighterElement((), 0)

    @staticmethod
    def from_dict(lamps, cursor=0):
        items = tuple(sorted((p, v) for p, v in lamps.items() if v != 0))
        return LamplighterElement(items, cursor)

    def lamp_dict(self):
        return dict(self.lamps)

    def mul(self, other):
        lamps = self.lamp_dict()
        for p, v in other.lamps:
            q = p + self.cursor
            w = lamps.get(q, 0) + v
            if w == 0:
                lamps.pop(q, None)
            else:
                lamps[q] = w
        return LamplighterElement.from_dict(lamps, self.cursor + other.cursor)

    def inv(self):
        lamps = {p - self.cursor: -v for p, v in self.lamps}
        return LamplighterElement.from_dict(lamps, -self.cursor)

    def label(self):
        return (self.lamps, self.cursor)

    @staticmethod
    def from_label(label):
        return LamplighterElement(tuple(tuple(x) for x in label[0]), label[1])


def word_length(g):
    """Lamp mass plus the shortest 0 -> cursor walk visiting every lit lamp:
    the distance from the identity."""
    return label_dist(((), 0), g.label())


def label_dist(a, b):
    """Word distance between two labels, without building elements.

    The difference configuration lives at absolute positions; its mass
    plus the shortest walk from cursor a to cursor b visiting its support
    is the distance (left invariance moves the base point to cursor a).
    """
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


def generator_moves(g):
    """The four one-letter right multiplications."""
    yield LamplighterElement(g.lamps, g.cursor + 1)
    yield LamplighterElement(g.lamps, g.cursor - 1)
    lamps = g.lamp_dict()
    for dv in (1, -1):
        w = lamps.get(g.cursor, 0) + dv
        d = dict(lamps)
        if w == 0:
            d.pop(g.cursor, None)
        else:
            d[g.cursor] = w
        yield LamplighterElement.from_dict(d, g.cursor)


def bfs_ball(radius, certify=True):
    """All elements of word length <= radius, with their BFS depths.

    With certify=True every BFS depth is compared against the closed-form
    length; a mismatch is a hard error.
    """
    origin = LamplighterElement.identity()
    depth = {origin: 0}
    queue = deque([origin])
    while queue:
        g = queue.popleft()
        d = depth[g]
        if d == radius:
            continue
        for h in generator_moves(g):
            if h not in depth:
                depth[h] = d + 1
                queue.append(h)
                guard_cap(len(depth), f"lamplighter ball radius {radius}")
    if certify:
        for g, d in depth.items():
            f = word_length(g)
            if f != d:
                raise AssertionError(
                    f"closed-form length {f} != BFS depth {d} at {g}")
    return depth


def lamplighter_ball(radius, certify=True):
    """Word-metric ball as a FiniteMetricSpace (labels are element tuples)."""
    depth = bfs_ball(radius, certify=certify)
    elements = sorted(depth, key=lambda g: (depth[g], g.label()))
    labels = [g.label() for g in elements]

    radii = [radius - depth[g] for g in elements]
    return FiniteMetricSpace(
        labels, label_dist, f"Z wr Z ball, radius={radius}",
        radii, geodesic=False, kind="lamplighter")


def identity_ball_labels(radius):
    """Cached elements of word length <= radius, grouped by length (for
    translated shells)."""
    if radius not in _IDENTITY_BALL_CACHE:
        depth = bfs_ball(radius, certify=False)
        by_r = {}
        for g, d in depth.items():
            by_r.setdefault(d, []).append(g)
        _IDENTITY_BALL_CACHE[radius] = by_r
    return _IDENTITY_BALL_CACHE[radius]


def translated_shell(label, r):
    """Ambient shell around an element, via left translation of the identity shell."""
    if r > SHELL_CAP:
        raise ValueError(f"lamplighter shell radius {r} beyond cap {SHELL_CAP}")
    g = LamplighterElement.from_label(label)
    by_r = identity_ball_labels(r)
    return [g.mul(u).label() for u in by_r.get(r, ())]


# ---------------------------------------------------------------------------
# The cursor-0 subgroup and its finite blocks


def in_block(label, m):
    """Cursor 0 and lamps confined to positions -m+1 .. m-1."""
    lamps, cursor = label
    return cursor == 0 and all(-m + 1 <= p <= m - 1 for p, _ in lamps)


def lamp_parts_window(ball_space):
    """Window of the lamp parts (cursor zeroed) of a ball's elements.

    These are elements of the cursor-0 subgroup with its restricted
    metric; their length can exceed the ball radius, so this is a sparse
    sample.  Nothing is measured on it: covers of it are only spread over
    cosets and looked up by point.  Every interior radius is 0, which marks
    each point as boundary and so could only make a statistic certify less.
    """
    parts = sorted({(label[0], 0) for label in ball_space.points})
    return FiniteMetricSpace(
        parts, label_dist, f"{ball_space.window_tag}|lamp parts",
        [0] * len(parts), geodesic=False, kind="lamplighter")


def block_window(ball_space, m):
    pts = [p for p in ball_space.points if in_block(p, m)]
    tag = f"{ball_space.window_tag}|block m={m}"
    return ball_space.subspace(pts, tag)


def lamp_coordinates(label, m):
    """Coordinates of a block element in Z^(2m-1): the lamp values in order."""
    lamps, cursor = label
    if cursor != 0:
        raise ValueError("block elements have cursor 0")
    if not all(-m + 1 <= p <= m - 1 for p, _ in lamps):
        raise ValueError(f"lamp support outside -{m - 1}..{m - 1}")
    d = dict(lamps)
    return tuple(d.get(p, 0) for p in range(-m + 1, m))


def coset_key(label, m):
    """Lamps outside the block: constant on left cosets of the block subgroup."""
    lamps, _ = label
    return tuple((p, v) for p, v in lamps if not (-m + 1 <= p <= m - 1))


def block_part(label, m):
    lamps, _ = label
    inner = tuple((p, v) for p, v in lamps if -m + 1 <= p <= m - 1)
    return (inner, 0)
