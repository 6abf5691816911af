"""Maps into the unit sphere of l^p over a window, and their statistics.

A kernel assigns every point x a finitely supported nonnegative function
of unit l^p norm.  Its two statistics are the support radius (largest
distance at which a row is nonzero) and the best Lipschitz constant of
the map into l^p, measured as the supremum of difference-norm over
distance.

Measuring the supremum on a window follows a documented policy: small
windows evaluate every pair; geodesic windows evaluate the unit edges,
whose maximum equals the full supremum because any pair quotient is an
average of edge quotients along a geodesic, plus a seeded confirmation
sample; everything else uses edges plus a seeded sample and is labeled
as sampled.  Every row has norm within e = norm_error of 1, so no pair
of the policy can exceed 2(1 + e)/d; a pair whose bound falls below the
running maximum is counted as bounded instead of evaluated.

Work that does not depend on p is done once and shared:

- the policy's pairs and their distances form a ``PairPlan``, keyed on
  (eligible points, seed, sample size, all-pairs cap); the
  partition-of-unity kernels of one cover keep their last plan on the
  cover, so p = 1, 2, 3 scanned back to back measure each distance once,
  and any other kernel builds a plan per scan;
- the partition-of-unity kernels of one cover share one cache of row
  support radii, because their rows have the same supports for every p;
- each cover's weights (``cover_weights``) are computed once per cover,
  and their p-th powers once per kernel, that is per (cover, p).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, starmap

from .errors import ContractViolation

ALL_PAIRS_CAP = 700
NORM_TOL = 1e-9
# A pair is skipped only when its bound 2(1 + e)/d falls below the running
# maximum by this relative margin.  The computed quotient of an n-term
# power sum is off by about n * 2^-53 relative, far below the margin, so a
# skipped pair could not have raised the maximum.
PRUNE_MARGIN = 1e-9


def p_norm(values, p):
    if p == 1:
        return float(sum(abs(v) for v in values))
    if p == 2:
        return float(sum(float(v) * float(v) for v in values)) ** 0.5
    return float(sum(abs(float(v)) ** p for v in values)) ** (1.0 / p)


def diff_norm(row_a, row_b, p):
    """l^p norm of row_a - row_b, summed in a fixed order: row_a's entries
    in row order, then row_b's remaining entries in row order."""
    acc = 0.0
    for key, va in row_a.items():
        vb = row_b.get(key)
        d = abs(float(va) - float(vb)) if vb is not None else abs(float(va))
        acc += d if p == 1 else d ** p
    for key, vb in row_b.items():
        if key not in row_a:
            d = abs(float(vb))
            acc += d if p == 1 else d ** p
    return acc if p == 1 else acc ** (1.0 / p)


def diff_norm_exact(row_a, row_b):
    """Exact l1 difference of two rational rows."""
    acc = Fraction(0)
    for key, va in row_a.items():
        acc += abs(va - row_b.get(key, 0))
    for key, vb in row_b.items():
        if key not in row_a:
            acc += abs(vb)
    return acc


class Kernel:
    """Sparse unit-sphere-valued map on a window.

    rows are dicts point-index -> value, built lazily through row_fn and
    cached.  Values are exact rationals when exact is set (p = 1
    constructions) and floats otherwise.
    domain_indices restricts where rows are defined (support may still use
    the whole window); None means everywhere.
    Each row's support radius is measured once and cached in radii, a dict
    point-index -> radius that kernels whose rows share their supports may
    share (None: a cache of this kernel's own).  plans, a dict holding at
    most one PairPlan, is shared by kernels scanned on the same pairs
    (None: kernel_stats builds a plan per scan).
    """

    def __init__(self, base, p, row_fn, name="", exact=False, domain_indices=None,
                 radii=None, plans=None):
        self.base = base
        self.p = p
        self.row_fn = row_fn
        self.name = name
        self.exact = exact
        self.domain_indices = (list(range(len(base))) if domain_indices is None
                               else sorted(domain_indices))
        self._domain_set = set(self.domain_indices)
        self._rows = {}
        self._radii = {} if radii is None else radii
        self._plans = plans

    def row(self, i):
        if i not in self._rows:
            if i not in self._domain_set:
                raise KeyError(f"kernel not defined at {self.base.points[i]}")
            self._rows[i] = self.row_fn(i)
        return self._rows[i]

    def support_radius(self, indices=None):
        """Largest distance from a point to its row's support, over indices
        (default: the domain), and the first point index attaining it
        (None over no indices)."""
        radii, dist = self._radii, self.base.dist_i
        worst, at = 0, None
        for i in (indices if indices is not None else self.domain_indices):
            r = radii.get(i)
            if r is None:
                r = 0
                for j in self.row(i):
                    d = dist(i, j)
                    if d > r:
                        r = d
                radii[i] = r
            if at is None or r > worst:
                worst, at = r, i
        return worst, at

    def norm_error(self, indices=None):
        """Largest |row norm - 1| over indices (default: the domain), and
        the first point index attaining it (None over no indices)."""
        worst, at = 0.0, None
        for i in (indices if indices is not None else self.domain_indices):
            err = abs(p_norm(self.row(i).values(), self.p) - 1.0)
            if at is None or err > worst:
                worst, at = err, i
        return worst, at

    def pair_quotient(self, i, j, d):
        """diff_norm(row(i), row(j), p) / d, where d = dist(i, j) is
        already measured."""
        if d == 0:
            raise ValueError("identical points")
        return diff_norm(self.row(i), self.row(j), self.p) / float(d)


@dataclass
class KernelStats:
    """Measured statistics of a kernel on its eligible points.

    Each statistic keeps the witness its measurement found: support_point
    and norm_error_point are the first eligible points whose rows attain
    support_radius and norm_error, and argmax_pair the first pair
    attaining lipschitz.  The policy's pairs split into pairs_evaluated
    (pair_quotient calls) and pairs_bounded (skipped because
    2(1 + norm_error)/d fell below the running maximum); lipschitz and
    argmax_pair are those of the full scan.
    """
    support_radius: int
    support_point: object
    lipschitz: float
    argmax_pair: tuple
    policy: str
    pairs_evaluated: int
    pairs_bounded: int
    norm_error: float
    norm_error_point: object


class PairPlan:
    """The pair policy's pairs on one window, in visiting order, with their
    distances.

    key is (eligible point indices, seed, sample size, all-pairs cap).  Up
    to the cap the pairs are all pairs of eligible points, in
    ``combinations`` order, and only their distances are stored; past it,
    they are the window's unit edges between eligible points followed by
    the seeded sample, stored as machine-int arrays of point indices.
    Distances are machine ints on integer metrics and otherwise the floats
    the pair quotient divides by.
    """

    def __init__(self, space, key):
        eligible, seed, sample_pairs, all_pairs_cap = key
        self.key = key
        self.all_pairs = len(eligible) <= all_pairs_cap
        if not self.all_pairs:
            chosen = set(eligible)
            self.first, self.second = array("i"), array("i")
            for i, j in space.edge_pairs():
                if i in chosen and j in chosen:
                    self.first.append(i)
                    self.second.append(j)
            rng = random.Random(seed)
            n = len(eligible)
            for _ in range(sample_pairs):
                i = eligible[rng.randrange(n)]
                j = eligible[rng.randrange(n)]
                if i != j:
                    self.first.append(i)
                    self.second.append(j)
        code = "I" if space.integer_metric else "d"
        self.dist = array(code, starmap(space.dist_i, self.pairs()))

    def pairs(self):
        """(i, j) in visiting order."""
        if self.all_pairs:
            return combinations(self.key[0], 2)
        return zip(self.first, self.second)

    def __len__(self):
        return len(self.dist)

    def __iter__(self):
        """((i, j), distance) in visiting order."""
        return zip(self.pairs(), self.dist)


def pair_plan(kernel, eligible, seed, sample_pairs, all_pairs_cap):
    """The kernel's plan for these arguments: the one kept in its shared
    plans when the key matches, else a new one that replaces it."""
    key = (tuple(eligible), seed, sample_pairs, all_pairs_cap)
    plans = kernel._plans
    if plans is None:
        return PairPlan(kernel.base, key)
    if key not in plans:
        plans.clear()               # never hold two plans
        plans[key] = PairPlan(kernel.base, key)
    return plans[key]


def kernel_stats(kernel, min_interior=0, seed=0, sample_pairs=20_000,
                 all_pairs_cap=ALL_PAIRS_CAP):
    """Measured support radius and Lipschitz constant.

    min_interior restricts both statistics to points whose interior radius
    reaches that level (used by partition-of-unity bounds, which hold on
    the ambient space and therefore only sufficiently far from the window
    boundary).
    """
    space = kernel.base
    eligible = [i for i in kernel.domain_indices
                if space.interior_radius[i] >= min_interior]
    sup_radius, sup_at = kernel.support_radius(eligible)
    norm_error, err_at = kernel.norm_error(eligible)
    cap = 2.0 * (1.0 + norm_error)
    plan = pair_plan(kernel, eligible, seed, sample_pairs, all_pairs_cap)

    # the strict > keeps the first maximum, so a pair whose bound falls
    # below floor cannot change lipschitz or argmax_pair
    best = floor = 0.0
    arg = None
    evaluated = 0
    for (i, j), d in plan:
        if cap / d < floor:
            continue
        q = kernel.pair_quotient(i, j, d)
        evaluated += 1
        if q > best:
            best = q
            floor = best * (1.0 - PRUNE_MARGIN)
            arg = (space.points[i], space.points[j])
    if plan.all_pairs:
        policy = "all-pairs"
    elif space.geodesic and (min_interior == 0 or space.kind == "grid"):
        policy = "edges-exact+sample"
    else:
        policy = "edges+sample"

    def label(i):
        return None if i is None else space.points[i]

    return KernelStats(
        support_radius=sup_radius, support_point=label(sup_at), lipschitz=best,
        argmax_pair=arg, policy=policy, pairs_evaluated=evaluated,
        pairs_bounded=len(plan) - evaluated, norm_error=norm_error,
        norm_error_point=label(err_at))


# ---------------------------------------------------------------------------
# Partition-of-unity kernels from covers


def boundary_distance(space, i, members, cap):
    """min(cap, window distance from point i to the complement of the set).

    Integer metrics scan shells outward (shells up to the interior radius
    coincide with ambient shells, and the cap is interior_radius + 1);
    rational metrics take the minimum over the complement directly.
    """
    p = space.points[i]
    if space.integer_metric:
        for r in range(1, cap):
            for q in space.shell(p, r):
                if space.index[q] not in members:
                    return r
        return cap
    best = cap
    for j, q in enumerate(space.points):
        if j not in members:
            d = space.dist(p, q)
            if d < best:
                best = d
    return best


def cover_weights(cover):
    """Per set: dict i -> distance-to-complement weight, capped by the
    ambient window margin (interior radius + 1).

    The weights do not depend on p, so they are computed once per cover
    and cached on it.
    """
    if cover._weights is None:
        space = cover.space
        cover._weights = [
            {i: boundary_distance(space, i, cover.frozen[sid],
                                  space.interior_radius[i] + 1) for i in s}
            for sid, s in enumerate(cover.sets)]
    return cover._weights


def pou_kernel(cover, p, exact=False):
    """Partition-of-unity kernel of a cover.

    Each set contributes the distance-to-complement weight, capped by the
    ambient window margin (interior radius + 1) so that window truncation
    never inflates a weight (``cover_weights``, shared by every p).  Rows
    are exactly unit norm by construction; a row is supported on z exactly
    when some set contains both points, whatever p and exact are, so every
    pou kernel of the cover shares the cover's support-radius cache, and
    its last pair plan.
    With exact=True (p = 1 only) all values are rationals.
    """
    if exact and p != 1:
        raise ValueError("exact mode is the p=1 fast path")
    space = cover.space
    mem = cover.membership()
    psi = cover_weights(cover)
    if exact:
        set_norm = [Fraction(sum(vals.values())) for vals in psi]
    else:
        norm_p = [float(p_norm(vals.values(), p)) ** p for vals in psi]
        # per set, float(w) ** p in the set's weight order
        powers = [array("d", (float(w) ** p for w in vals.values())) for vals in psi]

    def row_fn(i):
        owners = mem[i]
        if not owners:
            raise ContractViolation(f"point {space.points[i]} uncovered")
        if exact:
            total = Fraction(sum(psi[sid][i] for sid in owners))
            out = {}
            for sid in owners:
                phi = Fraction(psi[sid][i]) / total
                for z, w in psi[sid].items():
                    out[z] = out.get(z, Fraction(0)) + phi * Fraction(w) / set_norm[sid]
            return out
        weights = [float(psi[sid][i]) for sid in owners]
        total_p = sum(w ** p for w in weights)
        out = {}
        for sid, w in zip(owners, weights):
            coef = (w ** p) / total_p
            set_norm_p = norm_p[sid]
            for z, wz_p in zip(psi[sid], powers[sid]):
                out[z] = out.get(z, 0.0) + coef * wz_p / set_norm_p
        if p == 1:
            return out
        return {z: v ** (1.0 / p) for z, v in out.items()}

    return Kernel(space, p, row_fn, name=f"pou({cover.name}, p={p})",
                  exact=exact, radii=cover._radii, plans=cover._plans)


def pou_lipschitz_bound(stats, p=1):
    """The advertised partition-of-unity bound 2 (2 m^2)^(1/p) / L of a
    cover with multiplicity m and Lebesgue level L."""
    m = stats.multiplicity
    return 2.0 * (2.0 * m * m) ** (1.0 / p) / float(stats.lebesgue)


# ---------------------------------------------------------------------------
# Kernels on trees, supported on rays toward the marked end


def tent_profile(S):
    """Value at distance d along the ray: S + 2 - |S - 2d|, for 0 <= d <= S."""
    return [S + 2 - abs(S - 2 * d) for d in range(S + 1)]


def tree_kernel_tent(tree, S, p):
    """Tent-profile kernel: supported on the first S+1 ray points.

    Defined on the sub-window of nodes whose ray of length S stays inside.
    The unnormalized profile has p-norm exceeding (S^(p+1)/(p+1))^(1/p),
    and adjacent rows differ in p-norm by exactly (2^p (2 floor(S/2) + 2))^(1/p).
    """
    from .spaces import ray_point

    if S < 1:
        raise ValueError("S must be >= 1")
    domain = tree.ray_domain(S)
    if not domain:
        raise ValueError(f"window too shallow for rays of length {S}")
    space = tree.space
    profile = tent_profile(S)
    norm = p_norm(profile, p)

    def row_fn(i):
        label = space.points[i]
        out = {}
        for d, v in enumerate(profile):
            z = ray_point(label, d)
            out[space.index[z]] = v / norm
        return out

    return Kernel(space, p, row_fn, name=f"tent S={S} p={p}",
                  domain_indices=domain)


def tree_kernel_flat(tree, S, p):
    """Flat-profile kernel: mass S^(-1/p) on the S ray points starting at
    the node itself (distances 0 .. S-1), giving exact unit norm."""
    from .spaces import ray_point

    if S < 1:
        raise ValueError("S must be >= 1")
    domain = tree.ray_domain(S - 1)
    if not domain:
        raise ValueError(f"window too shallow for rays of length {S - 1}")
    space = tree.space
    value = S ** (-1.0 / p)

    def row_fn(i):
        label = space.points[i]
        return {space.index[ray_point(label, d)]: value for d in range(S)}

    return Kernel(space, p, row_fn, name=f"flat S={S} p={p}",
                  domain_indices=domain)


def tent_norm_floor(S, p):
    """(S^(p+1) / (p+1))^(1/p), the advertised lower bound for the
    unnormalized tent profile norm."""
    return (S ** (p + 1) / (p + 1)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# The radial sphere homeomorphism between l^q and l^p


def mazur_map(vec, q, p):
    """Send a unit vector of l^q to l^p coordinatewise: v -> |v|^(q/p-1) v."""
    norm = p_norm(vec, q)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"input must be a unit vector in l^{q}, norm {norm}")
    e = q / p
    return [(-1.0 if v < 0 else 1.0) * abs(float(v)) ** e for v in vec]


def mazur_pairs_check(dim, q, p, n_pairs, seed=0):
    """Seeded sample of unit-vector pairs; returns the worst ratio
    ||Mf - Mg||_p / ||f - g||_q (expected at most q/p for p <= q) and the
    number of the draw that attains it (None when no pair counted)."""
    rng = random.Random(seed)
    worst, worst_draw = 0.0, None
    for draw in range(n_pairs):
        f = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        g = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        nf, ng = p_norm(f, q), p_norm(g, q)
        f = [v / nf for v in f]
        g = [v / ng for v in g]
        mf, mg = mazur_map(f, q, p), mazur_map(g, q, p)
        dq = p_norm([a - b for a, b in zip(f, g)], q)
        if dq < 1e-12:
            continue
        dp = p_norm([a - b for a, b in zip(mf, mg)], p)
        if dp / dq > worst:
            worst, worst_draw = dp / dq, draw
    return worst, worst_draw


# ---------------------------------------------------------------------------
# Transfer along a map into a larger window


def pullback_kernel(f, domain, kernel, pairs=None):
    """Transfer a kernel on the target window back along an injective map.

    A retraction sends every target point to a nearest image point; the
    transferred row at x collects, over each fiber of the retraction, the
    p-mass of the original row at f(x).  Returns (kernel, report) where
    the report carries the exactness checks: norm preservation, difference
    contraction on the given pairs, and the support-radius relation
    rho_f(S(sigma)) <= 3 S(xi).
    """
    from .covers import Envelopes

    target = kernel.base
    p = kernel.p
    image = {}
    for x in domain.points:
        y = f(x)
        if y in image:
            raise ValueError("map must be injective on the window")
        image[y] = x
    image_ids = sorted(target.index[y] for y in image)
    retract = {}
    for j, y in enumerate(target.points):
        if y in image:
            retract[j] = target.index[y]
            continue
        best = None
        for i in image_ids:
            d = target.dist(y, target.points[i])
            if best is None or d < best[0]:
                best = (d, i)
        retract[j] = best[1]
    exact = kernel.exact

    domain_of_anchor = {target.index[y]: domain.index[x] for y, x in image.items()}

    def row_fn(i):
        x = domain.points[i]
        base_row = kernel.row(target.index[f(x)])
        acc = {}
        for j, v in base_row.items():
            anchor = retract[j]
            mass = abs(v) if p == 1 else abs(float(v)) ** p
            acc[anchor] = acc.get(anchor, Fraction(0) if exact else 0.0) + mass
        out = {}
        for anchor, mass in acc.items():
            if mass != 0:
                w_idx = domain_of_anchor[anchor]
                out[w_idx] = mass if p == 1 else float(mass) ** (1.0 / p)
        return out

    sigma = Kernel(domain, p, row_fn, name=f"pullback({kernel.name})", exact=exact)

    report = None
    if pairs is not None:
        exact_l1 = exact and p == 1
        norm_err = 0
        for i in range(len(domain)):
            if exact_l1:
                a = sum(sigma.row(i).values())
                b = sum(kernel.row(target.index[f(domain.points[i])]).values())
                norm_err = max(norm_err, abs(a - b))
            else:
                a = p_norm(sigma.row(i).values(), p)
                b = p_norm(kernel.row(target.index[f(domain.points[i])]).values(), p)
                norm_err = max(norm_err, abs(a - b))
        contraction_margin = 0
        for (a, b) in pairs:
            ia, ib = domain.index[a], domain.index[b]
            if exact_l1:
                ds = diff_norm_exact(sigma.row(ia), sigma.row(ib))
                dk = diff_norm_exact(kernel.row(target.index[f(a)]),
                                     kernel.row(target.index[f(b)]))
            else:
                ds = diff_norm(sigma.row(ia), sigma.row(ib), p)
                dk = diff_norm(kernel.row(target.index[f(a)]),
                               kernel.row(target.index[f(b)]), p)
            contraction_margin = max(contraction_margin, ds - dk)
        s_sigma, _ = sigma.support_radius()
        s_xi, _ = kernel.support_radius()
        rho_at = Envelopes((domain.dist(a, b), target.dist(f(a), f(b)))
                           for a, b in pairs).minus(s_sigma)
        report = {
            "norm_error": norm_err,
            "contraction_margin": contraction_margin,
            "support_radius_sigma": s_sigma,
            "support_radius_xi": s_xi,
            "rho_f_at_support": rho_at,
            "support_ok": float(rho_at) <= 3.0 * float(s_xi),
        }
    return sigma, report


# ---------------------------------------------------------------------------
# Profile reporting


def epsilon_profile_upper(S_list, p, build, mazur_reference=None):
    """Upper bounds on the best kernel Lipschitz constant per support level.

    build: callable S -> (kernel, measured stats) or None.  For each S the
    measured constant of the built kernel is reported when its support
    radius is at most S; the final column is made non-increasing in S (a
    larger support budget can always reuse a smaller kernel).  When
    mazur_reference = (alpha, phi) is given, the interpolation bound
    (e^alpha / p) * phi(S) * log S is reported alongside for S >= e^p.
    """
    import math

    rows = []
    running = None
    for S in sorted(S_list):
        built = build(S)
        if built is None or built[1].support_radius > S:
            raise ContractViolation(f"no kernel construction available at S={S}",
                                    witness=S)
        measured = built[1].lipschitz
        running = measured if running is None else min(running, measured)
        row = {"S": S, "eps_upper": running, "eps_measured": measured}
        if mazur_reference is not None:
            alpha, phi = mazur_reference
            if S >= math.exp(p):
                row["mazur_bound"] = (math.exp(alpha) / p) * phi(S) * math.log(S)
        rows.append(row)
    return rows
