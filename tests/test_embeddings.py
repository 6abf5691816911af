import math
import random

import pytest

from coarse_embed.embeddings import (KernelField,
                                     StepFunction, WeightFunction,
                                     build_embedding, compression_report,
                                     generalized_inverse, overlog_shape,
                                     shape_condition, shape_integral_rows,
                                     weight_from_type)
from coarse_embed.errors import ContractViolation
from coarse_embed.kernels import kernel_stats, tree_kernel_tent
from coarse_embed.spaces import tree_ball


def test_step_function_left_continuous_evaluation():
    f = StepFunction([0, 1], [0, 2])
    assert f(-1) == 0
    assert f(0) == 0
    assert f(0.5) == 2
    assert f(1) == 2
    assert f(9) == 2


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([0, 0], [1, 2])
    with pytest.raises(ValueError):
        StepFunction([0, 1], [2, 1])


def test_generalized_inverse_identity():
    steps = [(x, x) for x in range(10)]
    assert generalized_inverse(steps, 5) == 5


def test_generalized_inverse_step_and_sentinel():
    steps = [(0, 0), (1, 2)]
    assert generalized_inverse(steps, 1) == 1
    assert generalized_inverse(steps, 2) == 1
    assert generalized_inverse(steps, 3) == math.inf


def test_generalized_inverse_matches_table_scan():
    rng = random.Random(8)
    xs = sorted(rng.sample(range(100), 12))
    vals = sorted(rng.randrange(50) for _ in xs)
    steps = list(zip(xs, vals))
    for t in range(0, 55, 3):
        brute = min((x for x, v in steps if v >= t), default=math.inf)
        assert generalized_inverse(steps, t) == brute


def test_weight_from_type_linear_curve():
    curve = [(L, 3 * L) for L in range(1, 9)]
    w = weight_from_type(lambda t: t, curve, cutoff=3)
    assert w.cutoff == 3
    assert w(3) == 1          # inverse of the growth curve at the cutoff
    assert w(9) == 3
    assert w(24) == 8
    assert w(100) == 8        # constant past the last breakpoint


def test_weight_from_type_constant_curve():
    curve = [(L, 7) for L in (1, 2, 3)]
    with pytest.raises(ContractViolation):
        weight_from_type(lambda t: t, curve, cutoff=7)
    w = weight_from_type(lambda t: t, curve, cutoff=5)
    assert w(6) == w(7) == 1


def test_weight_from_type_overlog_monotone():
    u = overlog_shape(1, 2)
    curve = [(2.0 ** j, 2.0 ** j) for j in range(1, 7)]
    w = weight_from_type(u, curve, cutoff=2.0)
    assert all(a <= b for a, b in zip(w.values, w.values[1:]))


def test_level_weights_are_increments():
    w = WeightFunction([2, 4, 8], [1.0, 2.0, 4.0])
    assert w.level_weights(2) == [3.0, 12.0]


@pytest.fixture(scope="module")
def small_embedding():
    tree = tree_ball(3, 6)
    p = 2
    levels = []
    for S in (2, 4):
        kern = tree_kernel_tent(tree, S, p)
        ks = kernel_stats(kern, sample_pairs=500, seed=0)
        levels.append((S, kern, ks.lipschitz))
    u = overlog_shape(1, p)
    weight = weight_from_type(u, [(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)], cutoff=2.0)
    field = KernelField(levels, top=8.0)
    return build_embedding(field, weight, x0=(), p=p)


def test_embedding_single_level_reduces_to_kernel_difference():
    tree = tree_ball(3, 5)
    kern = tree_kernel_tent(tree, 2, 2)
    ks = kernel_stats(kern, sample_pairs=200, seed=0)
    field = KernelField([(2, kern, ks.lipschitz)], top=4)
    weight = WeightFunction([2, 4], [0.0, 1.0])
    theta = build_embedding(field, weight, x0=(), p=2)
    from coarse_embed.kernels import diff_norm
    i, j = tree.space.index[(0,)], tree.space.index[(1, 1)]
    expected = diff_norm(kern.row(i), kern.row(j), 2)
    assert theta.distance((0,), (1, 1)) == pytest.approx(expected, rel=1e-12)


def test_embedding_lipschitz_certificate(small_embedding):
    theta = small_embedding
    dom = theta.domain
    rng = random.Random(1)
    for _ in range(300):
        x, y = rng.choice(dom.points), rng.choice(dom.points)
        if x == y:
            continue
        assert theta.distance(x, y) <= theta.theoretical_C * dom.dist(x, y) * (1 + 1e-9)


def test_embedding_compression_floor(small_embedding):
    theta = small_embedding
    dom = theta.domain
    rng = random.Random(2)
    pairs = [(rng.choice(dom.points), rng.choice(dom.points)) for _ in range(400)]
    pairs = [(x, y) for x, y in pairs if x != y]
    rep = compression_report(dom.dist, theta.distance, pairs,
                             theoretical_C=theta.theoretical_C)
    for d, lo in rep.rho_minus:
        assert lo >= theta.floor(d) - 1e-6
    # the kept pair is the first one attaining the largest ratio
    ratios = [theta.distance(x, y) / dom.dist(x, y) for x, y in pairs]
    assert rep.lipschitz_estimate == max(ratios)
    assert rep.lipschitz_pair == pairs[ratios.index(max(ratios))]


def test_disjoint_levels_contribute_two(small_embedding):
    theta = small_embedding
    dom = theta.domain
    far = [(x, y) for x in dom.points for y in dom.points
           if dom.dist(x, y) > 8][:20]
    assert far
    for x, y in far:
        assert theta.disjoint_level_check(x, y) is None


def test_compression_report_identity_map():
    pts = [(i,) for i in range(12)]
    pairs = [(a, b) for a in pts for b in pts if a < b]
    dist = lambda a, b: abs(a[0] - b[0])
    rep = compression_report(dist, dist, pairs)
    assert rep.rho_minus == rep.rho_plus
    assert all(d == v for d, v in rep.rho_minus)
    assert rep.lipschitz_estimate == 1.0


def test_compression_report_constant_map():
    pts = [(i,) for i in range(8)]
    pairs = [(a, b) for a in pts for b in pts if a < b]
    rep = compression_report(lambda a, b: abs(a[0] - b[0]), lambda a, b: 0.0, pairs)
    assert all(v == 0.0 for _, v in rep.rho_minus)
    assert rep.minus(3) == 0.0


def test_compression_report_monotone_envelopes():
    rng = random.Random(7)
    pairs = [((0,), (i,)) for i in range(1, 40)]
    rep = compression_report(lambda a, b: abs(a[0] - b[0]),
                             lambda a, b: rng.uniform(0, 10), pairs)
    lo_vals = [v for _, v in rep.rho_minus]
    hi_vals = [v for _, v in rep.rho_plus]
    assert lo_vals == sorted(lo_vals)
    assert hi_vals == sorted(hi_vals)
    for (d, lo), (_, hi) in zip(rep.rho_minus, rep.rho_plus):
        assert lo <= hi


# ---------------------------------------------------------------------------
# shape integral diagnostics


def test_identity_shape_diverges():
    out = shape_condition(lambda t: t, 1, 2.0, math.e ** 20, subdivisions=8)
    assert out["verdict"] == "diverging"
    assert out["value"] > 10


def test_constant_shape_contributes_nothing():
    rows = shape_integral_rows(lambda t: 5.0, 2, 2.0, 1e6)
    assert rows[-1][1] == 0.0


def test_overlog_shape_converges_and_is_stable():
    u = overlog_shape(1, 2)
    coarse = shape_condition(u, 2, 3.0, math.e ** 45, subdivisions=64)
    fine = shape_condition(u, 2, 3.0, math.e ** 45, subdivisions=128)
    assert coarse["verdict"] == "converging"
    assert coarse["tail_estimate"] < 1e-3
    rel = abs(fine["value"] - coarse["value"]) / coarse["value"]
    assert rel < 1e-2


def test_shape_monotonicity_guard():
    with pytest.raises(ContractViolation):
        shape_integral_rows(lambda t: -t, 1, 2.0, 100.0)
