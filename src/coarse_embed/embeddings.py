"""Weighted compression embeddings and their measured distortion.

A scale-indexed family of unit-sphere kernels, paired with a
non-decreasing left-continuous weight function, embeds a window into a
weighted direct sum: the squared-or-p-th-power distance between two image
points is the sum over scale levels of the level's kernel difference to
the p, weighted by the increment of the weight function's p-th power
across the level.  Levels whose doubled support radius stays below the
pair's distance contribute disjoint supports, which floors the distance
in terms of the weight at half the distance; levels above contribute at
most their measured Lipschitz constant, which caps it.

When every level is a ray kernel (``Kernel.ray_length`` set), each
level's row difference is a function of the steps (a, b) from the two
points to the first point their rays share (``spaces.ray_meet``; see
``kernels``), and rays that do not meet within the longest level's length
are apart at every level.  So ``distance`` computes each (a, b), or None
for apart, once and returns the same float for every pair that shares it.
"""

from __future__ import annotations

import bisect
import math

from .covers import Envelopes
from .errors import ContractViolation
from .kernels import diff_norm
from .spaces import ray_meet


class StepFunction:
    """Left-continuous non-decreasing step function.

    Stored as breakpoints x_0 < ... < x_J with values v_0 <= ... <= v_J;
    evaluates to v_j on (x_{j-1}, x_j], to v_0 at or below x_0 and to v_J
    beyond x_J.
    """

    def __init__(self, breakpoints, values):
        if len(breakpoints) != len(values) or not breakpoints:
            raise ValueError("breakpoints and values must align and be nonempty")
        if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must increase strictly")
        if any(u > v for u, v in zip(values, values[1:])):
            raise ValueError("values must be non-decreasing")
        self.breakpoints = list(breakpoints)
        self.values = list(values)

    def __call__(self, t):
        i = bisect.bisect_left(self.breakpoints, t)
        if i >= len(self.values):
            return self.values[-1]
        return self.values[i]


def generalized_inverse(steps, t):
    """Inverse of a non-decreasing step function given as (x, value) pairs:
    the infimum of the x-region where the value reaches t, or +inf when t
    is never reached."""
    for x, v in steps:
        if v >= t:
            return x
    return math.inf


class WeightFunction(StepFunction):
    """Step weight with a cutoff: defined from the cutoff c = x_0 upward."""

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        if breakpoints[0] <= 1:
            raise ValueError("cutoff must exceed 1")

    @property
    def cutoff(self):
        return self.breakpoints[0]

    def level_weights(self, p):
        """Mass of d(f^p) on each inter-breakpoint interval."""
        f = self.values
        return [f[j + 1] ** p - f[j] ** p for j in range(len(f) - 1)]


def weight_from_type(u, growth_curve, cutoff):
    """Compose a shape function with the inverse of a mesh-growth curve.

    growth_curve: non-decreasing (L, mesh) pairs.  The weight takes the
    value u(L_j) on the slab of scales up to mesh_j, producing a
    left-continuous step function on breakpoints above the cutoff; its
    value at the cutoff is u of the curve's generalized inverse there.
    """
    pts = [(L, D) for L, D in growth_curve if D > cutoff]
    if not pts:
        raise ContractViolation("growth curve has no breakpoints above the cutoff")
    at_cutoff = generalized_inverse([(L, D) for L, D in growth_curve], cutoff)
    if at_cutoff == math.inf:
        raise ContractViolation("growth curve never reaches the cutoff")
    breakpoints = [cutoff] + [D for _, D in pts]
    values = [u(at_cutoff)] + [u(L) for L, _ in pts]
    for at, a, b in zip(breakpoints[1:], values, values[1:]):
        if b < a - 1e-12:
            raise ContractViolation("composed weight is not non-decreasing",
                                    witness={"breakpoint": at, "from": a, "to": b})
    merged_b, merged_v = [], []
    for b, v in zip(breakpoints, values):
        if merged_b and b <= merged_b[-1]:
            continue        # the inverse picks the smallest preimage
        merged_b.append(b)
        merged_v.append(v)
    return WeightFunction(merged_b, merged_v)


class KernelField:
    """Kernels indexed by the scale levels of a weight function.

    levels: list of (S_j, kernel_j, eps_j) with support radius <= S_j,
    one per weight breakpoint except the last (the truncation scale).
    """

    def __init__(self, levels, top):
        self.levels = list(levels)
        self.top = top
        for S, kern, _ in self.levels:
            radius, at = kern.support_radius()
            if radius > S:
                raise ContractViolation(
                    f"kernel at level {S} has support radius {radius}",
                    witness=kern.base.points[at])

    def breakpoints(self):
        return [S for S, _, _ in self.levels] + [self.top]


class CompressionEmbedding:
    """The reference-point-centered embedding built from a field and weight,
    whose levels' kernels must all have its p."""

    def __init__(self, field, weight, x0, p):
        if field.breakpoints() != weight.breakpoints:
            raise ContractViolation("field and weight breakpoints differ")
        for S, kern, _ in field.levels:
            if kern.p != p:
                raise ContractViolation(
                    f"kernel at level {S} has p={kern.p}, the embedding p={p}")
        self.field = field
        self.weight = weight
        self.p = p
        self.x0 = x0
        self.level_weights = weight.level_weights(p)
        self.theoretical_C = sum(
            w * (eps ** p) for w, (_, _, eps) in zip(self.level_weights, field.levels)
        ) ** (1.0 / p)
        self.base = base = field.levels[-1][1].base
        shared = None
        for _, kern, _ in field.levels:
            if kern.base is not base:
                raise ContractViolation("levels must share one window")
            idx = set(kern.domain_indices)
            shared = idx if shared is None else shared & idx
        self.domain = base.subspace(
            [base.points[i] for i in sorted(shared)],
            f"{base.window_tag}|embedding domain")
        if x0 not in self.domain.index:
            raise ContractViolation("reference point outside the shared domain")
        self._shared = shared
        lengths = [kern.ray_length for _, kern, _ in field.levels]
        self._reach = None if None in lengths else max(lengths)
        self._memo = {}

    def level_difference_powers(self, x, y):
        """Per-level p-th powers of the kernel row differences."""
        i, j = self.base.index[x], self.base.index[y]     # one window
        p = self.p
        return [diff_norm(kern.row(i), kern.row(j), p) ** p
                for _, kern, _ in self.field.levels]

    def direct_distance(self, x, y):
        """The embedded distance from the rows themselves, with no memo."""
        powers = self.level_difference_powers(x, y)
        return sum(w * dp for w, dp in zip(self.level_weights, powers)) ** (1.0 / self.p)

    def distance(self, x, y):
        """``direct_distance``, computed once per ray meeting when every
        level is a ray kernel; a point outside the domain raises KeyError
        from its row, as without the memo."""
        i, j = self.base.index[x], self.base.index[y]
        shared = self._shared
        if self._reach is None or i not in shared or j not in shared:
            return self.direct_distance(x, y)
        key = ray_meet(self.base, i, j, self._reach)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.direct_distance(x, y)
        return value

    def floor(self, d):
        """2 f(d/2) - 2 f(cutoff): the disjoint-support compression floor."""
        f = self.weight
        return 2.0 * f(d / 2.0) - 2.0 * f(f.cutoff)


def build_embedding(field, weight, x0, p):
    return CompressionEmbedding(field, weight, x0, p)


class CompressionReport(Envelopes):
    """Envelopes of an embedded (or arbitrary) pair mapping, with the
    largest measured distance ratio, the first pair attaining it, and the
    certified Lipschitz constant."""

    def __init__(self, rows, lipschitz_estimate, lipschitz_pair,
                 theoretical_C=None):
        super().__init__(rows)
        self.lipschitz_estimate = lipschitz_estimate
        self.lipschitz_pair = lipschitz_pair
        self.theoretical_C = theoretical_C

    def csv_rows(self, floor_fn):
        return [{"d": d, "rho_minus": lo, "rho_plus": hi, "floor_2f": floor_fn(d)}
                for (d, lo), (_, hi) in zip(self.rho_minus, self.rho_plus)]


def compression_report(dist_source, dist_embedded, pairs, theoretical_C=None):
    rows = []
    lip, lip_pair = 0.0, None
    for a, b in pairs:
        d = dist_source(a, b)
        if d == 0:
            continue
        e = dist_embedded(a, b)
        rows.append((float(d), float(e)))
        q = float(e) / float(d)
        if lip_pair is None or q > lip:
            lip, lip_pair = q, (a, b)
    return CompressionReport(rows, lip, lip_pair, theoretical_C)


# ---------------------------------------------------------------------------
# Admissibility of a compression shape: the weighted tail integral


def overlog_shape(a, p):
    """t -> t * (log t)^(-(1+a)/p), the canonical admissible shape."""
    e = (1.0 + a) / p

    def u(t):
        return t * math.log(t) ** (-e)

    return u


def shape_integral_rows(u, p, c, T, subdivisions=1):
    """Lower Stieltjes sums of the tail integral of d(u^p) / t^p.

    Geometric grid from c to at least T with `subdivisions` steps per
    doubling; each row carries the truncation point and the running sum.
    Monotonicity of u is validated on the grid.
    """
    if c <= 1:
        raise ValueError("cutoff must exceed 1")
    ratio = 2.0 ** (1.0 / subdivisions)
    ts = [float(c)]
    while ts[-1] < T:
        ts.append(ts[-1] * ratio)
    vals = [u(t) for t in ts]
    for a, b in zip(vals, vals[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            raise ContractViolation(f"shape function decreases on the grid near {b}")
    rows = []
    total = 0.0
    for i in range(len(ts) - 1):
        total += (vals[i + 1] ** p - vals[i] ** p) / ts[i + 1] ** p
        rows.append((ts[i + 1], total))
    return rows


def shape_condition(u, p, c, T, subdivisions=1):
    """Convergence diagnostic for the admissibility integral.

    Returns a dict with the partial-sum rows, the final increment used as
    the Cauchy tail estimate, and the verdict: 'diverging' once the partial
    sum passes 10, 'converging' when the tail estimate is below 1e-3, else
    'inconclusive'.
    """
    rows = shape_integral_rows(u, p, c, T, subdivisions=subdivisions)
    total = rows[-1][1]
    window = max(1, subdivisions)
    tail = total - rows[-1 - window][1] if len(rows) > window else total
    if total > 10.0:
        verdict = "diverging"
    elif tail < 1e-3:
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return {"rows": rows, "value": total, "tail_estimate": tail,
            "verdict": verdict}
