"""The restricted wreath product of the integers with themselves.

An element is its label (lamps, cursor): a sorted tuple of (position,
nonzero value) pairs, the finitely supported Z -> Z lamp configuration,
and the cursor position.  Labels are canonical: positions strictly
increase and no value is 0, and every constructor here keeps them so.
``mul`` is the group law on labels.  Generators are the cursor moves t,
t^-1 and the lamp increments a, a^-1 acting at the cursor.  Word length
has a closed form: total lamp mass plus the shortest walk on the line that
starts at 0, visits every lit lamp and ends at the cursor; label_dist
computes it between any two labels, and word_length is label_dist from
the identity.  Distance, product and block coordinates are each one merge
over the sorted lamps, with no per-call dict.  A BFS oracle over the
generators certifies the closed form on every enumerated ball.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import guard_cap, point_cap
from .spaces import FiniteMetricSpace

IDENTITY = ((), 0)
# the identity's shells by word length, each in generator-BFS order
_IDENTITY_SHELLS = [[IDENTITY]]
# largest radius whose ambient shells translated_shell enumerates
SHELL_CAP = 12


def mul(a, b):
    """The group law: b's lamps, shifted by a's cursor, added to a's lamps;
    the cursors add.

    Both labels must be canonical (lamps sorted by position, every value
    nonzero).  The shifted lamps of b stay sorted, so the sum is one merge
    in position order that drops the positions summing to 0.
    """
    (lamps_a, ca), (lamps_b, cb) = a, b
    lamps = []
    i, n = 0, len(lamps_a)
    for p, v in lamps_b:
        p += ca
        while i < n and lamps_a[i][0] < p:
            lamps.append(lamps_a[i])
            i += 1
        if i < n and lamps_a[i][0] == p:
            v += lamps_a[i][1]
            i += 1
            if not v:
                continue
        lamps.append((p, v))
    lamps.extend(lamps_a[i:])
    return tuple(lamps), ca + cb


def word_length(g):
    """Lamp mass plus the shortest 0 -> cursor walk visiting every lit lamp:
    the distance from the identity."""
    return label_dist(IDENTITY, g)


def label_dist(a, b):
    """Word distance between two labels.

    The difference configuration lives at absolute positions; its mass
    plus the shortest walk from cursor a to cursor b visiting its support
    is the distance (left invariance moves the base point to cursor a).
    That walk covers the interval [lo, hi] spanned by both cursors and the
    support: twice its length, less the stretch between the cursors, which
    is walked once.  Both labels must be canonical (lamps sorted by
    position, every value nonzero), so the difference is one merge in
    position order.
    """
    lamps_a, ca = a
    lamps_b, cb = b
    lo, hi = (ca, cb) if ca < cb else (cb, ca)
    gap = hi - lo
    mass = 0
    i = j = 0
    na, nb = len(lamps_a), len(lamps_b)
    while i < na and j < nb:
        pa, va = lamps_a[i]
        pb, vb = lamps_b[j]
        if pa < pb:
            pos, v = pa, va
            i += 1
        elif pb < pa:
            pos, v = pb, vb
            j += 1
        else:
            pos, v = pa, vb - va
            i += 1
            j += 1
            if not v:
                continue
        mass += v if v > 0 else -v
        if pos < lo:
            lo = pos
        elif pos > hi:
            hi = pos
    for pos, v in lamps_a[i:] or lamps_b[j:]:   # one side is used up
        mass += v if v > 0 else -v
        if pos < lo:
            lo = pos
        elif pos > hi:
            hi = pos
    return mass + 2 * (hi - lo) - gap


def generator_moves(g):
    """The four one-letter right multiplications, in the order t, t^-1, a,
    a^-1."""
    lamps, c = g
    yield lamps, c + 1
    yield lamps, c - 1
    k = bisect_left(lamps, (c,))
    head, tail = lamps[:k], lamps[k:]
    v = 0
    if tail and tail[0][0] == c:
        v, tail = tail[0][1], tail[1:]
    for w in (v + 1, v - 1):
        yield (head + ((c, w),) + tail if w else head + tail), c


def identity_shells(radius):
    """The identity's shells 0..radius (at least), each a list of labels in
    generator-BFS order.

    One cache grows to the largest radius asked for: BFS order of the
    elements of length <= r does not depend on how far the search goes.
    The next shell is the frontier's moves that lie in neither the frontier
    nor the shell before it (a move changes the length by at most one), in
    the order the frontier finds them.  The size cap is read once per
    shell and raises at the first element past it; a shell enters the
    cache only when complete.
    """
    shells = _IDENTITY_SHELLS
    while len(shells) <= radius:
        frontier = shells[-1]
        seen = set(frontier)
        if len(shells) > 1:
            seen.update(shells[-2])
        size = sum(map(len, shells))
        room = point_cap() - size
        grown = []
        for g in frontier:
            for h in generator_moves(g):
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
                    if len(grown) > room:
                        guard_cap(size + len(grown),
                                  f"lamplighter ball radius {radius} elements")
        shells.append(grown)
    return shells


def bfs_ball(radius, certify=True):
    """All elements of word length <= radius, with their BFS depths, in
    BFS order.

    With certify=True every BFS depth is compared against the closed-form
    length; a mismatch is a hard error.
    """
    shells = identity_shells(radius)
    depth = {g: d for d in range(radius + 1) for g in shells[d]}
    if certify:
        for g, d in depth.items():
            f = word_length(g)
            if f != d:
                raise AssertionError(
                    f"closed-form length {f} != BFS depth {d} at {g}")
    return depth


def lamplighter_ball(radius, certify=True):
    """Word-metric ball as a FiniteMetricSpace, its labels sorted by
    (length, label)."""
    depth = bfs_ball(radius, certify=certify)
    labels = sorted(depth, key=lambda g: (depth[g], g))
    radii = [radius - depth[g] for g in labels]
    return FiniteMetricSpace(
        labels, label_dist, f"Z wr Z ball, radius={radius}",
        radii, geodesic=False, kind="lamplighter")


def translated_shell(label, r):
    """Ambient shell around an element: the left translate of the identity
    shell."""
    if r > SHELL_CAP:
        raise ValueError(f"lamplighter shell radius {r} beyond cap {SHELL_CAP}")
    return [mul(label, u) for u in identity_shells(r)[r]]


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
    coords = [0] * (2 * m - 1)
    for p, v in lamps:
        if not -m < p < m:
            raise ValueError(f"lamp support outside -{m - 1}..{m - 1}")
        coords[p + m - 1] = v
    return tuple(coords)


def coset_key(label, m):
    """Lamps outside the block: constant on left cosets of the block subgroup."""
    lamps, _ = label
    return tuple((p, v) for p, v in lamps if not (-m + 1 <= p <= m - 1))


def block_part(label, m):
    lamps, _ = label
    inner = tuple((p, v) for p, v in lamps if -m + 1 <= p <= m - 1)
    return (inner, 0)
