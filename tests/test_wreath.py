import pytest

from coarse_embed.covers import lebesgue_condition
from coarse_embed.lamplighter import lamplighter_ball
from coarse_embed.wreath import line_interval_cover_sets, wreath_cover


def test_line_intervals_cover_with_multiplicity_two():
    sets = line_interval_cover_sets(-20, 20, 3)
    hits = {x: 0 for x in range(-20, 21)}
    for _, _, cells in sets:
        for x in cells:
            if -20 <= x <= 20:
                hits[x] += 1
    assert all(1 <= h <= 2 for h in hits.values())
    families = {fam for _, fam, _ in sets}
    assert families <= {0, 1}


def test_line_intervals_interior_level():
    L = 2
    sets = line_interval_cover_sets(-30, 30, L)
    for x in range(-25, 26):
        ball = set(range(x - L, x + L + 1))
        assert any(ball <= set(cells) for _, _, cells in sets)


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
    ball, (cover, stats, detail) = wreath6
    for sid, s in enumerate(cover.sets):
        c0 = cover.tags[sid][0]
        cursors = {ball.points[i][1] for i in s}
        assert all(c0 <= c <= c0 + 4 - 1 for c in cursors)


def test_wreath_rejects_bad_target():
    ball = lamplighter_ball(3, certify=False)
    with pytest.raises(ValueError):
        wreath_cover(ball, 0)


def test_wreath_mesh_growth_curve():
    from coarse_embed.covers import type_function_upper
    ball = lamplighter_ball(5, certify=False)

    def builder(L):
        cover, stats, _ = wreath_cover(ball, L)
        return cover, stats

    rows = type_function_upper(builder, [1, 2])
    meshes = [s for _, s in rows]
    assert meshes == sorted(meshes)
    for L, s in rows:
        assert s <= 36864 * L ** 3
