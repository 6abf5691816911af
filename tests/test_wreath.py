import pytest

from coarse_embed.covers import cover_stats, interval_cover, lebesgue_condition
from coarse_embed.lamplighter import lamplighter_ball
from coarse_embed.spaces import grid_space
from coarse_embed.wreath import block_cover, wreath_cover


@pytest.mark.parametrize("L", [1, 2, 3])
def test_cursor_line_intervals(L):
    # the wreath's cursor intervals: length 4L, step 2L, anchor 0
    intervals = interval_cover(grid_space(1, 30), 4 * L, 2 * L, 0)
    stats = cover_stats(intervals)
    assert stats.multiplicity == 2
    assert stats.lebesgue == L + 1 and not stats.lebesgue_truncated
    # point i is x = i - 30; one set per start c in 2L Z, by increasing c
    starts = range(-30 - 4 * L + 1, 31)
    assert intervals.sets == [tuple(x + 30 for x in range(max(c, -30), min(c + 4 * L, 31)))
                              for c in starts if c % (2 * L) == 0]


@pytest.fixture(scope="module")
def wreath6():
    ball = lamplighter_ball(6, certify=False)
    return ball, wreath_cover(ball, 1)


def test_wreath_cover_contract_small_window(wreath6):
    ball, (cover, stats, detail) = wreath6
    assert stats.multiplicity <= detail["multiplicity_bound"] == 96
    assert stats.lebesgue >= 1 or stats.lebesgue_truncated
    assert stats.mesh <= detail["mesh_bound"] == 36864
    assert detail["m"] == 12


def test_wreath_cover_coverage_is_checked(wreath6):
    ball, (cover, stats, detail) = wreath6
    assert cover.check_coverage()
    assert lebesgue_condition(cover, 1) is None


def test_wreath_sets_respect_cursor_slabs(wreath6):
    # at L = 1: the cursor slab [c, c + 4) for c in 2Z times a set of the
    # lamp-part cover, one set per pair that meets, in sorted (c, set) order
    ball, (cover, stats, detail) = wreath6
    lamp_cov, _ = block_cover(ball, detail["m"], 2 * detail["m"])
    lamp_index = lamp_cov.space.index
    mem = lamp_cov.membership()
    want = {}
    for i, (lamps, cursor) in enumerate(ball.points):
        for c in range(cursor - 3, cursor + 1):
            if c % 2 == 0:
                for sid in mem[lamp_index[(lamps, 0)]]:
                    want.setdefault((c, sid), []).append(i)
    assert cover.sets == [tuple(want[key]) for key in sorted(want)]


def test_wreath_rejects_bad_target():
    ball = lamplighter_ball(3, certify=False)
    with pytest.raises(ValueError):
        wreath_cover(ball, 0)


def test_wreath_mesh_growth_curve():
    ball = lamplighter_ball(5, certify=False)
    meshes = [wreath_cover(ball, L)[1].mesh for L in (1, 2)]
    assert meshes == [10, 10]
    for L, s in zip((1, 2), meshes):
        assert s <= 36864 * L ** 3
