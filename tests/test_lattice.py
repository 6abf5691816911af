import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
# derandomized tests also pin @seed, so an edit does not change their examples
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarse_embed.covers import cover_stats, lebesgue_condition
from coarse_embed import lattice
from coarse_embed.errors import ContractViolation, CoverageError
from coarse_embed.lamplighter import lamp_coordinates, lamp_parts_window
from coarse_embed.lattice import (BoxCoverSpec, LatticeCoverSpec,
                                  box_grid_cover, candidate_specs,
                                  canonical_spec, cell_contains,
                                  cell_contains_bruteforce,
                                  default_thickening, embed_grid_point,
                                  in_family_separation_bound, membership,
                                  pullback_grid_cover, vertex_profile,
                                  zk_cover)
from coarse_embed.spaces import clear_denominators, grid_space


# ---------------------------------------------------------------------------
# Oracles: the split-average gap that defines the cell, and membership by
# per-family rational rounding


def split_average_gap(x, subset):
    """Average over the subset minus average over the complement (exact)."""
    n = len(x)
    subset = set(subset)
    j = len(subset)
    if j == 0 or j == n:
        raise ValueError("subset must be proper and nonempty")
    total = sum(x)
    s = sum(x[i] for i in subset)
    return Fraction(s, 1) / j - (total - s) / (n - j)


def glue_shift(i, n):
    """The i-th shift vector: ((i-n)/n on the first i coords, i/n after)."""
    return tuple(Fraction(i - n, n) if j < i else Fraction(i, n) for j in range(n))


def _decode_family(y, n, tau):
    """Integer zero-sum lattice points whose (enlarged) cell can contain y.

    The singleton inequalities force |y_j - mu_j| < (n-1)/(2n) + tau/2
    coordinatewise, so mu_j is floor or ceiling of y_j.  For tau < 1/n the
    bound is below 1/2 and the choice per coordinate is forced, giving at
    most one candidate.  Larger tau leaves both choices open on coordinates
    whose fractional part falls in the ambiguity band; those are enumerated
    (the zero-sum constraint fixes how many take the ceiling).
    """
    b = Fraction(n - 1, 2 * n) + Fraction(tau) / 2
    base = []
    ambiguous = []
    for idx, yj in enumerate(y):
        fl = _floor_fraction(yj)
        frac = yj - fl
        lo_ok = frac < b
        hi_ok = 1 - frac < b
        if lo_ok and hi_ok:
            base.append(fl)
            ambiguous.append(idx)
        elif lo_ok:
            base.append(fl)
        elif hi_ok:
            base.append(fl + 1)
        else:
            return []
    need = -sum(base)
    if need < 0 or need > len(ambiguous):
        return []
    if need == 0 and not ambiguous:
        return [tuple(base)]
    out = []
    for chosen in combinations(ambiguous, need):
        mu = list(base)
        for idx in chosen:
            mu[idx] += 1
        out.append(tuple(mu))
    return out


def _floor_fraction(x):
    return x.numerator // x.denominator if isinstance(x, Fraction) else x // 1


def membership_reference(x, spec):
    """Rational-arithmetic reference for the membership listing (slow)."""
    n = spec.n
    if len(x) != n:
        raise ValueError("dimension mismatch")
    if sum(x) != 0:
        raise ValueError("point is not in the zero-sum hyperplane")
    xs = tuple(Fraction(c) / spec.scale - o for c, o in zip(x, spec.offset))
    out = []
    for i in range(n):
        shift = glue_shift(i, n)
        y = tuple(a - b for a, b in zip(xs, shift))
        for mu in _decode_family(y, n, spec.thickening):
            v = tuple(a - b for a, b in zip(y, mu))
            if cell_contains(v, spec.thickening):
                out.append((i, mu))
    return out


# ---------------------------------------------------------------------------


def zero_sum_sample(rng, n, span=8):
    vec = [Fraction(rng.randrange(-span * n, span * n), rng.choice((1, 2, 3, 4, 6, 8)))
           for _ in range(n - 1)]
    vec.append(-sum(vec))
    return tuple(vec)


def test_gap_vanishes_at_origin():
    zero = (Fraction(0),) * 4
    for size in (1, 2, 3):
        for subset in combinations(range(4), size):
            assert split_average_gap(zero, subset) == 0


def test_gap_at_cell_vertex():
    sigma = vertex_profile(4)
    assert sigma == (Fraction(-3, 8), Fraction(-1, 8), Fraction(1, 8), Fraction(3, 8))
    assert split_average_gap(sigma, [3]) == Fraction(1, 2)
    assert cell_contains(sigma, 0)       # on the boundary of the closed cell


def test_gap_antisymmetry_under_complement():
    rng = random.Random(2)
    for n in (2, 4, 6):
        for _ in range(50):
            x = zero_sum_sample(rng, n)
            for size in range(1, n):
                subset = tuple(rng.sample(range(n), size))
                comp = tuple(i for i in range(n) if i not in subset)
                assert split_average_gap(x, subset) == -split_average_gap(x, comp)


def test_norm_dominates_gap():
    # strict for n > 2 (positive mass is half the norm, coefficient below 2);
    # at n = 2 the gap of a singleton equals the norm exactly
    rng = random.Random(3)
    for n in (2, 4, 6):
        for _ in range(50):
            x = zero_sum_sample(rng, n)
            if all(c == 0 for c in x):
                continue
            norm = sum(abs(c) for c in x)
            for size in range(1, n):
                subset = tuple(rng.sample(range(n), size))
                gap = split_average_gap(x, subset)
                if n == 2:
                    assert norm >= gap
                else:
                    assert norm > gap


def cell_wall_sample(rng, n):
    """A permuted cell vertex scaled by 1/2, 1 or 3/2 (inside, on the
    closed cell's boundary, outside), or the midpoint of two permuted
    vertices, which lies on a wall or inside."""
    def vertex():
        v = list(vertex_profile(n))
        rng.shuffle(v)
        return v
    kind = rng.randrange(4)
    if kind < 3:
        return tuple(Fraction(kind + 1, 2) * c for c in vertex())
    return tuple((a + b) / 2 for a, b in zip(vertex(), vertex()))


def on_closed_wall(x):
    """The largest split gap, over the sets of the j largest coordinates,
    is exactly the closed cell's 1/2."""
    top = sorted(range(len(x)), key=x.__getitem__, reverse=True)
    return max(split_average_gap(x, top[:j]) for j in range(1, len(x))) == Fraction(1, 2)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_prefix_test_matches_bruteforce(n):
    # the closed cell and both thickenings the decoder uses: the default
    # and candidate_specs' tau_big = 24/(25n); random samples rarely land
    # on a wall of the closed cell, so half the points are built on one
    rng = random.Random(100 + n)
    walls = 0
    for k in range(800):
        x = zero_sum_sample(rng, n, span=2) if k % 2 else cell_wall_sample(rng, n)
        walls += on_closed_wall(x)
        for t in (0, default_thickening(n), Fraction(24, 25 * n)):
            assert cell_contains(x, t) == cell_contains_bruteforce(x, t)
    assert walls > 100


def test_vertex_norm_is_half_dimension():
    for n in (2, 4, 6, 8):
        k = n // 2
        sigma = vertex_profile(n)
        assert sum(abs(c) for c in sigma) == Fraction(k, 2)


def test_shifts_are_zero_sum_glue_vectors():
    for n in (2, 4, 6):
        for i in range(n):
            s = glue_shift(i, n)
            assert sum(s) == 0
            assert all(c.denominator in (1, n) or n % c.denominator == 0 for c in s)
    assert glue_shift(0, 4) == (0, 0, 0, 0)


def test_spec_thickening_is_at_most_one_over_n():
    # tau = 1/n puts the band b = (n-1)/(2n) + tau/2 at 1/2, the widest
    # that keeps every coordinate's rounding forced: it decodes as the
    # oracle does, cell walls included, and any wider thickening is refused
    for n in (4, 46):
        with pytest.raises(ValueError, match="thickening must be at most 1/n"):
            LatticeCoverSpec(n, Fraction(1), Fraction(1, n) + Fraction(1, 80 * n))
    rng = random.Random(13)
    for n in (2, 4):
        spec = LatticeCoverSpec(n, Fraction(1), Fraction(1, n))
        walls = 0
        for k in range(200):
            x = zero_sum_sample(rng, n, span=2) if k % 2 else cell_wall_sample(rng, n)
            walls += on_closed_wall(x)
            assert membership(x, spec) == membership_reference(x, spec)
        assert walls > 20


def test_library_specs_keep_the_rounding_forced():
    # every spec zk_cover and wreath_cover can try, and the standard specs
    # of the voronoi and pullback checks; a wider thickening would be
    # refused here, at construction, rather than inside an experiment
    specs = [spec for k in range(1, 5) for L in range(1, 10)
             for spec in candidate_specs(k, L)]
    specs += [canonical_spec(23, 24)]
    specs += [LatticeCoverSpec.standard(n) for n in range(2, 13, 2)]
    assert all(spec.thickening <= Fraction(1, spec.n) for spec in specs)


def test_membership_origin_in_family_zero():
    spec = LatticeCoverSpec.standard(4)
    found = membership((Fraction(0),) * 4, spec)
    assert (0, (0, 0, 0, 0)) in found


def test_membership_fast_equals_reference():
    # tau in (0, 9/(10n)], and every eighth trial at the largest, 1/n
    rng = random.Random(7)
    for n in (2, 4, 6):
        for trial in range(120):
            scale = Fraction(rng.randrange(1, 20), rng.randrange(1, 6))
            tau = Fraction(rng.randrange(1, 10), rng.randrange(10, 40) * n)
            spec = LatticeCoverSpec(n, scale, Fraction(1, n) if trial % 8 == 0 else tau)
            x = zero_sum_sample(rng, n, span=4)
            assert sorted(membership(x, spec)) == \
                sorted(membership_reference(x, spec))


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-40, 40),
                            st.sampled_from((1, 2, 3, 4, 6, 8)))


def zero_sum(head):
    return tuple(head) + (-sum(head),)


@st.composite
def decode_cases(draw, dims=(2, 4, 6, 8)):
    """A spec with random scale, offset and thickening, with the band
    b = (n-1)/(2n) + tau/2 below 1/2 or, at the largest thickening 1/n,
    equal to it, and a zero-sum point."""
    n = draw(st.sampled_from(dims))
    scale = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    k = draw(st.integers(0, 39))
    tau = Fraction(k + 1, 41 * n) if draw(st.booleans()) else Fraction(1, n)
    offset = zero_sum(draw(st.lists(SMALL_FRACTIONS, min_size=n - 1, max_size=n - 1)))
    x = zero_sum(draw(st.lists(SMALL_FRACTIONS, min_size=n - 1, max_size=n - 1)))
    return LatticeCoverSpec(n, scale, tau, offset), x


@settings(max_examples=400, deadline=None, derandomize=True)
@seed(37051746016523086677310926861712196703418920271682378763606651613011847218131937231032227164182666103810304547856545)
@given(decode_cases())
def test_membership_equals_reference_property(case):
    spec, x = case
    assert membership(x, spec) == membership_reference(x, spec)


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(34247126374938585646027061361118370189715612672279285729191235010719733829637410115127742552454932038680614801200413)
@given(decode_cases())
def test_membership_agrees_with_bruteforce_cells(case):
    # every zero-sum rounding of every shifted point is a lattice point
    # whose cell may hold it (the band stays at or below 1/2); the decode must
    # list exactly those whose cell the subset oracle accepts
    spec, x = case
    n, tau = spec.n, spec.thickening
    found = membership(x, spec)
    xs = [c / spec.scale - o for c, o in zip(x, spec.offset)]
    expected = []
    for i in range(n):
        y = [a - b for a, b in zip(xs, glue_shift(i, n))]
        floors = [c.numerator // c.denominator for c in y]
        fractional = [j for j in range(n) if y[j] != floors[j]]
        for chosen in combinations(fractional, -sum(floors)):
            mu = tuple(f + (j in chosen) for j, f in enumerate(floors))
            v = [a - b for a, b in zip(y, mu)]
            if cell_contains_bruteforce(v, tau):
                expected.append((i, mu))
    assert sorted(found) == sorted(expected)


def pinned_residues(rng, n, D, T, pos, value):
    """n residues in [0, D) with n - sum / D == T whose sorted list, listed
    twice with the second copy lifted by D, holds value at position pos,
    and the share of their room by which random draws were moved to meet
    the sum; None when no such residues exist."""
    if (pos >= n) != (value >= D):
        return None
    r, k = value % D, pos % n
    # k residues below r, the pinned one, and n - 1 - k from r up
    bounds = [(0, r - 1)] * k + [(r, D - 1)] * (n - 1 - k)
    if any(lo > hi for lo, hi in bounds):
        return None
    res = [rng.randint(lo, hi) for lo, hi in bounds]
    gap = (n - T) * D - r - sum(res)
    rooms = [hi - v if gap > 0 else lo - v for v, (lo, hi) in zip(res, bounds)]
    room = sum(rooms)
    if abs(gap) > abs(room):
        return None
    # every residue moves the same share of its room, which keeps distinct
    # draws apart; the rounding remainder goes one unit at a time
    moves = [m * gap // room if room else 0 for m in rooms]
    res = [v + m for v, m in zip(res, moves)]
    left = gap - sum(moves)
    for j in rng.sample(range(len(res)), len(res)):
        lo, hi = bounds[j]
        moved = max(lo - res[j], min(hi - res[j], left))
        res[j] += moved
        left -= moved
    assert left == 0
    return abs(Fraction(gap, room or 1)), res + [r]


def boundary_points(spec, point_den, rng, kinds, per_kind):
    """Yield (family, kind, point): for every family i, points whose
    doubled sorted residues (over the decode's denominator D) hold
    lows[i] - 1 (kind 0) or lows[i] (kind 1) at position T + i - 1, or
    highs[i] - 1 (kind 2) or highs[i] (kind 3) at position T + i, the two
    places membership's screen reads; kinds(i) picks the kinds per family.
    Of the T that can place a threshold, the per_kind whose random
    residues moved least are kept; a threshold no residues can place
    yields nothing.

    The spec has integer scale s, a multiple of n, and no offset, so a
    point of coordinates X_j / point_den decodes over D = s point_den with
    the X_j themselves as integers; lows and highs are rebuilt here from
    the band b = (n-1)/(2n) + tau/2."""
    n = spec.n
    D = int(spec.scale) * point_den
    assert spec.scale.denominator == 1 and D % n == 0
    b = Fraction(n - 1, 2 * n) + spec.thickening / 2
    low = -(-b.numerator * D // b.denominator)
    high = D + 1 - low
    for i in range(n):
        c = i * D // n
        targets = ((1, c + low - 1), (1, c + low), (0, c + high - 1), (0, c + high))
        for kind in kinds(i):
            shift, value = targets[kind]
            placed = []
            for T in range(1, n + 1):
                got = pinned_residues(rng, n, D, T, T + i - shift, value)
                if got is not None:
                    placed.append((got[0], T, got[1]))
            found = 0
            for _, T, res in sorted(placed):
                quot = [rng.randint(-2, 2) for _ in range(n - 1)]
                quot.append(T - n - sum(quot))
                X = [q * D + r for q, r in zip(quot, res)]
                rng.shuffle(X)
                x = [Fraction(v, point_den) for v in X]
                if clear_denominators(x)[0] != point_den:
                    continue
                ordered = sorted(v % D for v in X)
                ordered += [v + D for v in ordered]
                assert n - sum(ordered[:n]) // D == T
                assert ordered[T + i - shift] == value
                yield i, kind, x
                found += 1
                if found == per_kind:
                    break


@pytest.mark.parametrize("n", [2, 4, 46])
def test_membership_screen_at_family_thresholds(n):
    # band b below 1/2 (tau = 1/(2n) and 3/(4n)) and at 1/2 (tau = 1/n,
    # the largest); the scale, a multiple of 8n, makes b D an integer, so
    # every threshold is also an exact tie of the rational comparison.  At
    # n = 46 the oracle is slow, so each family gets one point denominator
    # and one kind per screen position, rotating over the families.
    rng = random.Random(1000 + n)
    if n <= 4:
        scale, per_kind = Fraction(8 * n), 2
        kinds_of = lambda i, point_den: range(4)
    else:
        scale, per_kind = Fraction(40 * n), 1
        kinds_of = lambda i, point_den: (
            (i % 2, 2 + i // 2 % 2) if i % 2 == (point_den > 1) else ())
    seen = set()
    for tau in (Fraction(1, 2 * n), Fraction(3, 4 * n), Fraction(1, n)):
        spec = LatticeCoverSpec(n, scale, tau)
        families = set()
        for point_den in (1, 3):
            kinds = lambda i: kinds_of(i, point_den)
            for i, kind, x in boundary_points(spec, point_den, rng, kinds, per_kind):
                assert membership(x, spec) == membership_reference(x, spec), \
                    (tau, point_den, i, kind)
                seen.add((i, kind, point_den))
                families.add(i)
        assert families == set(range(n))
    assert {(i, kind) for i, kind, _ in seen} == {
        (i, kind) for i in range(n) for d in (1, 3) for kind in kinds_of(i, d)}
    assert {d for _, _, d in seen} == {1, 3}


def test_membership_equals_reference_on_lamp_block(ball8):
    # the k = 23 block of the lamplighter cover: lamp coordinates of the
    # ball's lamp parts, through the canonical level-24 spec (n = 46)
    spec = canonical_spec(23, 24)
    parts = lamp_parts_window(ball8).points
    picked = parts[::max(1, len(parts) // 200)]
    assert len(picked) >= 200
    doubled = replace(spec, scale=2 * spec.scale)
    for label in picked:
        z = lamp_coordinates(label, 12)
        x = embed_grid_point(z)
        want = membership_reference(x, spec)
        assert membership(x, spec) == want
        assert membership(integer_image(z), doubled) == want


def integer_image(z):
    """The grid decode's integer vector: embed_grid_point(z) times 2."""
    return [c for zm in z for c in (zm, -zm)]


@settings(max_examples=120, deadline=None, derandomize=True)
@seed(18623292475072450390822132393693397331535878932544244950899487005091448615887119861377397431354323527038599023292820)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-60, 60), min_size=k, max_size=k)),
    st.integers(1, 3))
def test_grid_decode_on_integers_equals_embedding(z, L):
    # every candidate spec: tau0 (1/n at n = 2, below it from n = 4) and
    # tau_big = 24/(25n) (L > 1) both keep the band at or below 1/2
    x = embed_grid_point(z)
    for spec in candidate_specs(len(z), L):
        doubled = replace(spec, scale=2 * spec.scale)
        want = membership_reference(x, spec)
        assert membership(x, spec) == want
        assert membership(integer_image(z), doubled) == want


def test_membership_covers_and_is_unique_per_family():
    rng = random.Random(8)
    for n in (2, 4, 6):
        spec = LatticeCoverSpec.standard(n)
        for _ in range(600):
            x = zero_sum_sample(rng, n)
            found = membership(x, spec)
            assert found, f"point {x} uncovered"
            assert len(found) <= n
            families = [i for i, _ in found]
            assert len(set(families)) == len(families)


def test_family_translate_separation_bound():
    rng = random.Random(9)
    for n in (2, 4, 6):
        target = Fraction(1, n - 1)
        for _ in range(200):
            delta = [rng.randrange(-4, 5) for _ in range(n - 1)]
            delta.append(-sum(delta))
            if all(d == 0 for d in delta):
                continue
            assert in_family_separation_bound(tuple(delta)) >= target


def test_grid_embedding_is_isometric():
    g = grid_space(2, 4)
    for a in g.points:
        for b in g.points:
            ea, eb = embed_grid_point(a), embed_grid_point(b)
            l1 = sum(abs(x - y) for x, y in zip(ea, eb))
            assert l1 == g.dist(a, b)
    assert embed_grid_point((0, 0)) == (0, 0, 0, 0)
    assert embed_grid_point((1, 0)) == (Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert sum(abs(c) for c in embed_grid_point((1, 0))) == 1


def test_zk_cover_line_level_one():
    window = grid_space(1, 30)
    cover, stats, spec = zk_cover(window, 1, 1)
    assert stats.lebesgue >= 1
    assert stats.multiplicity <= 2
    assert stats.mesh <= 1


def test_zk_cover_line_level_two_is_infeasible():
    # a multiplicity-2 cover of the line with mesh <= 2 cannot contain a
    # closed 1-ball around every point; the strict contract must refuse
    window = grid_space(1, 30)
    with pytest.raises(ContractViolation):
        zk_cover(window, 1, 2)


def test_zk_cover_plane_level_one():
    window = grid_space(2, 20)
    cover, stats, spec = zk_cover(window, 2, 1)
    assert stats.lebesgue >= 1
    assert stats.multiplicity <= 4
    assert stats.mesh <= 5


def test_zk_cover_plane_level_three_best_effort():
    window = grid_space(2, 20)
    cover, stats, spec = zk_cover(window, 2, 3, strict=False)
    assert stats.lebesgue >= 3 or stats.lebesgue_truncated
    assert lebesgue_condition(cover, 3) is None
    assert stats.multiplicity <= 4
    # the grown box cover meets the advertised mesh bound 15
    assert stats.mesh <= 15
    # the lattice family's own best certified candidate still lands near
    # 20, short of that bound
    lattice_meshes = []
    for spec in candidate_specs(2, 3):
        lattice = pullback_grid_cover(window, spec)
        st = cover_stats(lattice)
        if st.multiplicity <= 4 and lebesgue_condition(lattice, 3) is None:
            lattice_meshes.append(st.mesh)
    assert lattice_meshes and min(lattice_meshes) <= 24


@pytest.mark.parametrize("L", [2, 3, 8, 9])
def test_box_cover_mesh_is_six_l_minus_eight(L):
    # certified level L and multiplicity at most 4 at every level; the
    # mesh 6L-8 meets the plane bound 5L up to L = 8 and misses it from 9
    window = grid_space(2, 3 * L)
    cover = box_grid_cover(window, BoxCoverSpec(2 * L - 2, L - 1))
    stats = cover_stats(cover)
    assert lebesgue_condition(cover, L) is None
    assert stats.multiplicity <= 4
    assert stats.mesh == 6 * L - 8
    assert (stats.mesh <= 5 * L) == (L <= 8)


def test_zk_cover_respects_explicit_spec():
    window = grid_space(2, 12)
    spec = canonical_spec(2, 1)
    cover, stats, used = zk_cover(window, 2, 1, spec=spec, strict=False)
    assert used.scale == spec.scale
    assert stats.lebesgue >= 1


def test_pullback_sets_union_covers_window():
    window = grid_space(2, 15)
    cover, _, _ = zk_cover(window, 2, 1)
    covered = set()
    for s in cover.sets:
        covered.update(s)
    assert covered == set(range(len(window)))


def test_pullback_names_the_grid_point_it_misses(monkeypatch):
    monkeypatch.setattr(lattice, "membership", lambda x, spec: [])
    with pytest.raises(CoverageError) as err:
        pullback_grid_cover(grid_space(2, 1), canonical_spec(2, 1))
    assert err.value.witness == (-1, -1)


def test_grid_membership_agrees_with_cover(small_grid):
    cover, stats, spec = zk_cover(small_grid, 2, 1)
    # sets come in sorted key order: set id -> its key's rank among them all
    key_of = sorted({key for z in small_grid.points
                     for key in membership(embed_grid_point(z), spec)})
    rng = random.Random(12)
    for _ in range(100):
        z = rng.choice(small_grid.points)
        keys = set(membership(embed_grid_point(z), spec))
        owners = {key_of[sid] for sid in cover.membership()[small_grid.index[z]]}
        assert keys == owners
