"""Experiments: one definition per command-line subcommand, shared with
the acceptance suite, which runs every criterion through them at configs
it pins in its own table.  Each is a function ``cfg -> Result(rows, checks)``
that raises ConfigError on unknown or missing keys and on values of the
wrong type or range before building anything.  A check is ``(name, value,
bound, ok, witness)``.  A failing check's witness is read, never measured
again: a cover, kernel or embedding statistic's witness is the point, set
or pair its own measurement found, and a sampled check keeps its first
offending sample.  Every experiment accepts ``seed``, which the ``--seed``
flag sets for all of them.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .covers import (Envelopes, balls_cover, check_pullback_inequalities,
                     cover_stats, delta_consistency_report, grouped_cover,
                     interval_cover, pullback_cover)
from .embeddings import (KernelField, build_embedding, compression_report,
                         overlog_shape, shape_condition, weight_from_type)
from .errors import ConfigError, ContractViolation, guard_cap, point_cap
from .kernels import (diff_norm, kernel_stats, mazur_pairs_check, p_norm,
                      pou_kernel, pou_lipschitz_bound, pullback_kernel,
                      tent_norm_floor, tent_profile, tree_kernel_tent)
from .lamplighter import (bfs_ball, block_window, lamp_coordinates,
                          lamplighter_ball, word_length)
from .lattice import (BoxCoverSpec, LatticeCoverSpec, cell_contains,
                      cell_contains_bruteforce, embed_grid_point,
                      in_family_separation_bound, membership,
                      membership_or_fail, zk_cover)
from .spaces import grid_space, rational_window, tree_ball
from .wreath import wreath_cover


Check = namedtuple("Check", "name value bound ok witness")
Result = namedtuple("Result", "rows checks")


def _check(checks, name, value, bound, ok, witness):
    """Record one check; `witness` is a callable, called only on failure."""
    checks.append(Check(name, value, bound, ok, None if ok else witness()))
    return ok


# A parameter's default is REQUIRED, or None when the body derives it from
# the others; lo bounds a value (each item of a list) from below.
Param = namedtuple("Param", "default what test lo min_len", defaults=(None, None))
REQUIRED = object()


def _scalar(kind, lo):
    """Description and test of an int (kind int) or a finite real >= lo."""
    def test(v):
        real = type(v) is float and kind is float and math.isfinite(v)
        return (type(v) is int or real) and (lo is None or v >= lo)
    return ("an integer" if kind is int else "a number") + (
        "" if lo is None else f" >= {lo}"), test


def integer(default=REQUIRED, lo=None):
    return Param(default, *_scalar(int, lo), lo)


def number(default, lo=None):
    return Param(default, *_scalar(float, lo), lo)


def choice(*options):
    """One of the options; the first is the default."""
    return Param(options[0], f"one of {', '.join(options)}", lambda v: v in options)


def listing(default, kind, lo=None, min_len=0, increasing=False):
    what, test = _scalar(kind, lo)
    return Param(default, f"a {'strictly increasing ' * increasing}list of at least "
                          f"{min_len} items, each {what}",
                 lambda v: (isinstance(v, list) and len(v) >= min_len
                            and all(map(test, v))
                            and (not increasing
                                 or all(a < b for a, b in zip(v, v[1:])))), lo, min_len)


def _resolve(params, cfg):
    unknown = sorted(set(cfg) - set(params))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(params)}")
    out = {}
    for key, (default, what, test, _, _) in params.items():
        value = out[key] = cfg.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        if (value is not None or default is not None) and not test(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    return out


EXPERIMENTS = {}


def experiment(name, **params):
    """Register `body` as experiment `name`: its config is resolved against
    `params` (plus `seed`) first, and a contract the construction raises
    becomes one failing check named after the experiment.  The runner keeps
    `params` as ``run.params``."""
    params["seed"] = integer(0)

    def register(body):
        @functools.wraps(body)
        def run(cfg):
            resolved = _resolve(params, cfg)
            try:
                return body(resolved)
            except ContractViolation as exc:
                return Result([], [Check(name, str(exc), "its contract", False,
                                         exc.witness)])
        run.params = params
        EXPERIMENTS[name] = run
        return run

    return register


def _powers_fit(p, log_top, what):
    """ConfigError unless values up to e^log_top, each to the power p, add
    up inside the float range over a window of at most the point cap."""
    if p * log_top + math.log(max(point_cap(), 1)) >= math.log(sys.float_info.max):
        raise ConfigError(f"p = {p}: {what}, to the power p, passes the float range")


def _kernel_checks(checks, at, ks, eps_bound, radius_bound, config):
    """Unit rows, support radius and Lipschitz constant of one kernel.  A
    kernel whose pair policy accounts for no pair (fewer than two eligible
    points) fails its pairs check, with the config as witness: its
    Lipschitz constant of 0 would measure nothing."""
    pairs = ks.pairs_evaluated + ks.pairs_bounded
    return all([
        _check(checks, f"{at} norm error", ks.norm_error, 1e-9,
               ks.norm_error <= 1e-9, lambda: ks.norm_error_point),
        _check(checks, f"{at} support radius", ks.support_radius, radius_bound,
               ks.support_radius <= radius_bound, lambda: ks.support_point),
        _check(checks, f"{at} pairs measured", pairs, 1, pairs > 0,
               lambda: "no pair measured: " + ", ".join(
                   f"{key} {value}" for key, value in config.items())),
        _check(checks, f"{at} eps", ks.lipschitz, eps_bound,
               ks.lipschitz <= eps_bound + 1e-9, lambda: ks.argmax_pair),
    ])


@experiment("zk-cover", k=integer(lo=1), L=integer(lo=1),
            half_width=integer(40, lo=1))
def run_zk_cover(c):
    """Certified cover of a Z^k box at Lebesgue level L, whose mesh must
    meet the advertised (2k^2-2k+1) L (criterion 4)."""
    k, L = c["k"], c["L"]
    if c["half_width"] < L - 1:     # the box's centre has interior radius half_width
        raise ConfigError(f"half_width must be at least L - 1 = {L - 1}, or no "
                          f"point has the radius the level-L condition constrains")
    if k == 1 and L >= 3:
        raise ConfigError(f"k = 1 needs L at most 2, got {L}: the level-L condition "
                          f"puts the open L-ball of the box's centre (2L - 1 points) "
                          f"in one set, so the mesh is at least 2L - 2 = {2 * L - 2} "
                          f"> (2k^2-2k+1) L = {L}")
    cover, stats, spec = zk_cover(grid_space(k, c["half_width"]), k, L,
                                  strict=False)
    bound = (2 * k * k - 2 * k + 1) * L
    # the winning family's own parameters name the cover
    if isinstance(spec, BoxCoverSpec):
        shape = {"side": spec.side, "growth": spec.growth}
    else:
        shape = {"scale": spec.scale, "thickening": spec.thickening}
    rows = [{
        "k": k, "L": L, **shape,
        "lebesgue": stats.lebesgue, "multiplicity": stats.multiplicity,
        "mesh": stats.mesh, "mesh_bound": bound, "n_sets": stats.n_sets,
        **{f"delta_p{p}": v for p, v in stats.delta.items()},
    }, *delta_consistency_report(stats)]
    checks = []
    _check(checks, f"mesh of {cover.name}", stats.mesh, bound,
           stats.mesh <= bound, lambda: stats.mesh_witness)
    return Result(rows, checks)


@experiment("voronoi-check", n=integer(lo=2), samples=integer(10_000, lo=1),
            box=integer(None, lo=1))
def run_voronoi_check(c):
    """Sampled zero-sum points against the permutohedron cell and the
    lattice cover, and the separation of lattice translates in a box
    (criterion 3).  n is even and at most 12, the limit of the brute-force
    cell oracle; box defaults to 6, 2, 1 for n = 2, 4, 6 and to 1 above.
    The translates and their pairs count against the size cap: at box 1,
    n = 10 (40,073,628 pairs) and n = 12 need COARSE_EMBED_CAP raised."""
    n, samples = c["n"], c["samples"]
    if n % 2:
        raise ConfigError(f"n must be even, got {n}")
    if n > 12:
        raise ConfigError(f"n must be at most 12 (brute-force oracle), got {n}")
    # the translate scan, sized before anything is sampled: the
    # enumerated combinations, then the pairs of the kept translates
    box = c["box"] or {2: 6, 4: 2, 6: 1}.get(n, 1)
    guard_cap((2 * box + 1) ** (n - 1), f"voronoi-check translates (n={n}, box={box})")
    pts = [combo + (-sum(combo),)
           for combo in product(range(-box, box + 1), repeat=n - 1)
           if abs(sum(combo)) <= box]
    n_pairs = guard_cap(len(pts) * (len(pts) - 1) // 2,
                        f"voronoi-check translate pairs (n={n}, box={box})")
    rng = random.Random(c["seed"])
    spec = LatticeCoverSpec.standard(n)
    mismatched, uncovered, crowded = [], [], []     # offending samples
    max_mult = 0
    for _ in range(samples):
        vec = [Fraction(rng.randrange(-8 * n, 8 * n), rng.choice((1, 2, 3, 4, 6, 8)))
               for _ in range(n - 1)]
        x = (*vec, -sum(vec))
        if cell_contains(x, 0) != cell_contains_bruteforce(x, 0):
            mismatched.append(x)
        found = membership(x, spec)
        if not found:
            uncovered.append(x)
        if len(found) > n:
            crowded.append(x)
        max_mult = max(max_mult, len(found))
    deltas = (tuple(x - y for x, y in zip(a, b))
              for i, a in enumerate(pts) for b in pts[i + 1:])
    worst_sep, worst_delta = min(
        ((in_family_separation_bound(d), d) for d in deltas), key=lambda t: t[0])
    target = Fraction(1, n - 1)
    rows = [{
        "n": n, "samples": samples,
        "prefix_vs_bruteforce_mismatches": len(mismatched),
        "uncovered": len(uncovered), "max_multiplicity": max_mult,
        "separation_lower_bound": worst_sep, "separation_target": target,
        "translate_pairs": n_pairs,
    }]
    checks = []
    _check(checks, "prefix vs bruteforce mismatches", len(mismatched), 0,
           not mismatched, lambda: mismatched[0])
    _check(checks, "uncovered samples", len(uncovered), 0, not uncovered,
           lambda: uncovered[0])
    _check(checks, "multiplicity", max_mult, n, max_mult <= n,
           lambda: crowded[0])
    _check(checks, "separation lower bound", worst_sep, target,
           worst_sep >= target, lambda: worst_delta)
    return Result(rows, checks)


@experiment("cover-kernel", cover=choice("interval", "balls", "zk"),
            p_list=listing([1, 2, 3], float, lo=1, min_len=1),
            half_width=integer(None, lo=1), r=integer(2, lo=1),
            k=integer(2, lo=1), L=integer(None, lo=1))
def run_cover_kernel(c):
    """Partition-of-unity kernels of one cover of a Z or Z^k window against
    2(2m^2)^(1/p)/L (criterion 1).  half_width defaults to 100 for the
    interval cover, else 40; cover=zk needs L."""
    kind = c["cover"]
    if kind == "zk" and c["L"] is None:
        raise ConfigError("cover=zk needs L")
    half_width = c["half_width"] or (100 if kind == "interval" else 40)
    # a pou weight is capped by its point's interior radius + 1
    _powers_fit(max(c["p_list"]), math.log(half_width + 1),
                f"a weight up to half_width + 1 = {half_width + 1}")
    if kind == "zk":
        window = grid_space(c["k"], half_width)
        cover, stats, _ = zk_cover(window, c["k"], c["L"], strict=False)
    else:
        cover = (interval_cover(grid_space(1, half_width)) if kind == "interval"
                 else balls_cover(grid_space(2, half_width), c["r"]))
        stats = cover_stats(cover)
    min_interior = max(0, stats.lebesgue - 1)
    rows, checks = [], []
    for p in c["p_list"]:
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, min_interior=min_interior)
        bound = pou_lipschitz_bound(stats, p=p)
        ok = _kernel_checks(checks, f"{cover.name} p={p}", ks, bound,
                            stats.mesh, c)
        rows.append({
            "cover": cover.name, "p": p, "lebesgue": stats.lebesgue,
            "multiplicity": stats.multiplicity, "mesh": stats.mesh,
            "support_radius": ks.support_radius, "eps": ks.lipschitz,
            "eps_bound": bound, "norm_error": ks.norm_error,
            "policy": ks.policy, "ok": ok,
        })
    return Result(rows, checks)


@experiment("tree-embed", valence=integer(3, lo=3), depth=integer(12, lo=1),
            S_list=listing([2, 4, 8, 16], int, lo=1, min_len=1),
            p_list=listing([1, 2], float, lo=1, min_len=1))
def run_tree_embed(c):
    """Tent kernels on a tree: Lipschitz at most 8/S, support radius at
    most S, unit rows, and the profile norm above its floor (criterion 2)."""
    # the window's longest ray toward the marked end: depth plus its spine
    if max(c["S_list"]) > 3 * c["depth"]:
        raise ConfigError(f"S_list must stay at most 3 * depth = {3 * c['depth']}")
    top = max(c["S_list"]) + 2
    _powers_fit(max(c["p_list"]), math.log(top), f"the tent profile's top S + 2 = {top}")
    tree = tree_ball(c["valence"], c["depth"])
    rows, checks = [], []
    for S in c["S_list"]:
        for p in c["p_list"]:
            kern = tree_kernel_tent(tree, S, p)
            ks = kernel_stats(kern)
            bound = 8.0 / S
            floor = tent_norm_floor(S, p)
            raw_norm = p_norm(tent_profile(S), p)
            ok = _kernel_checks(checks, f"S={S} p={p}", ks, bound, S, c)
            ok &= _check(checks, f"S={S} p={p} profile norm", raw_norm, floor,
                         raw_norm > floor, lambda: tent_profile(S))
            rows.append({
                "S": S, "p": p, "eps": ks.lipschitz, "bound_8_over_S": bound,
                "support_radius": ks.support_radius,
                "profile_norm": raw_norm, "norm_floor": floor,
                "norm_error": ks.norm_error, "ok": ok,
            })
    return Result(rows, checks)


@experiment("lamplighter-metric", radius=integer(8, lo=0),
            m_list=listing([2, 3], int, lo=1), block_radius=integer(10, lo=0),
            pairs=integer(200, lo=1))
def run_lamplighter_metric(c):
    """Closed-form word length against generator BFS (criterion 5), and the
    sandwich d - 4(m-1) <= l1 <= d on sampled block pairs (criterion 6)."""
    if c["m_list"] and c["block_radius"] < 1:
        raise ConfigError("block_radius must be at least 1 when m_list is "
                          "non-empty: the radius-0 block is the identity alone")
    depth = bfs_ball(c["radius"], certify=False)
    wrong = [g for g, d in depth.items() if word_length(g) != d]
    rows = [{"radius": c["radius"], "elements": len(depth),
             "formula_mismatches": len(wrong)}]
    checks = []
    _check(checks, "length formula mismatches", len(wrong), 0, not wrong,
           lambda: wrong[0])
    rng = random.Random(c["seed"])
    if c["m_list"]:
        ball = lamplighter_ball(c["block_radius"], certify=False)
    for m in c["m_list"]:
        block = block_window(ball, m)
        bad = []
        distinct = 0
        for _ in range(c["pairs"]):
            a, b = rng.choice(block.points), rng.choice(block.points)
            distinct += a != b
            l1 = sum(abs(x - y) for x, y in zip(lamp_coordinates(a, m),
                                                lamp_coordinates(b, m)))
            dk = block.dist(a, b)
            if not (dk - 4 * (m - 1) <= l1 <= dk):
                bad.append((a, b))
        rows.append({"m": m, "pairs": c["pairs"],
                     "sandwich_violations": len(bad)})
        _check(checks, f"m={m} distinct sampled pairs", distinct, 1, distinct > 0,
               lambda: f"no pair a != b: m {m}, block_radius {c['block_radius']}, "
                       f"pairs {c['pairs']}, seed {c['seed']}")
        _check(checks, f"m={m} coordinate sandwich violations", len(bad), 0,
               not bad, lambda: bad[0])
    return Result(rows, checks)


@experiment("lamplighter-cover", radius=integer(10, lo=0), L=integer(1, lo=1))
def run_lamplighter_cover(c):
    """The wreath cover of a lamplighter ball against its contract:
    multiplicity <= 96 L, level >= L, mesh <= 36864 L^3 (criterion 11)."""
    radius, L = c["radius"], c["L"]
    if radius < L - 1:      # the ball's centre has interior radius radius
        raise ConfigError(f"radius must be at least L - 1 = {L - 1}, or no "
                          f"point has the radius the level-L condition constrains")
    ball = lamplighter_ball(radius, certify=False)
    # coverage: cover_stats raises CoverageError at the first uncovered point;
    # the level scan stops at min(radius + 1, L + 2) >= L
    _, stats, detail = wreath_cover(ball, L)
    mult_bound, mesh_bound = detail["multiplicity_bound"], detail["mesh_bound"]
    rows = [{
        "radius": radius, "L": L, "m": detail["m"],
        "elements": len(ball), "n_sets": stats.n_sets,
        "multiplicity": stats.multiplicity, "multiplicity_bound": mult_bound,
        "lebesgue": stats.lebesgue, "lebesgue_truncated": stats.lebesgue_truncated,
        "mesh_upper": stats.mesh, "mesh_witnessed": stats.mesh_witnessed,
        "mesh_exact": stats.mesh_exact, "mesh_bound": mesh_bound,
    }]
    checks = []
    _check(checks, "multiplicity", stats.multiplicity, mult_bound,
           stats.multiplicity <= mult_bound, lambda: stats.multiplicity_point)
    _check(checks, "certified level", stats.lebesgue, L, stats.lebesgue >= L,
           lambda: stats.lebesgue_limit)
    _check(checks, "mesh", stats.mesh, mesh_bound, stats.mesh <= mesh_bound,
           lambda: stats.mesh_witness)
    return Result(rows, checks)


# criterion 8's sizes: pairs of unit vectors of R^16 through the Mazur map
MAZUR_DIM = 16
MAZUR_PAIRS = 10_000


def _mazur_check(checks, dim, n_pairs, seed):
    """The Mazur map from l^2 to l^1 on n_pairs seeded pairs of unit vectors
    of R^dim, checked against its q/p = 2 contraction.  Returns the worst
    ratio, the draw that attains it and whether the check held; it fails
    when no pair counted (every draw two equal vectors)."""
    worst, draw = mazur_pairs_check(dim, 2, 1, n_pairs, seed=seed)
    ok = _check(checks, "mazur ratio q/p", worst, 2.0,
                draw is not None and worst <= 2.0,
                lambda: f"draw {draw} of seed {seed}" if draw is not None else
                f"no pair counted: dim {dim}, pairs {n_pairs}, seed {seed}")
    return worst, draw, ok


@experiment("mazur")
def run_mazur(c):
    """The worst ratio ||Mf - Mg||_1 / ||f - g||_2 of the Mazur map over
    sampled unit pairs stays at most q/p = 2 (criterion 8)."""
    checks = []
    worst, draw, _ = _mazur_check(checks, MAZUR_DIM, MAZUR_PAIRS, c["seed"])
    return Result([{"dim": MAZUR_DIM, "pairs": MAZUR_PAIRS, "worst_ratio": worst,
                    "bound": 2.0, "draw": draw}], checks)


@experiment("profile", p=number(2, lo=1), grid_half_width=integer(20, lo=1),
            tree_depth=integer(10, lo=1),
            grid_S_list=listing([2, 4, 8], float, lo=0, min_len=1),
            tree_S_list=listing([2, 4, 8, 16], float, lo=1, min_len=1),
            wreath_radius=integer(5, lo=1),
            wreath_L_list=listing([1], int, lo=1, min_len=1),
            mazur_dim=integer(16, lo=1), mazur_pairs=integer(2000, lo=1))
def run_profile(c):
    """Epsilon profiles of the plane, tree and lamplighter group, and the
    Mazur map's q/p contraction on sampled unit pairs (criterion 12)."""
    p = c["p"]
    # a tree kernel at S walks int(S) steps; the longest ray a window
    # holds is a leaf's: tree_depth plus the spine's 2 * tree_depth
    if max(map(int, c["tree_S_list"]), default=0) > 3 * c["tree_depth"]:
        raise ConfigError(f"tree_S_list rounded down must stay at most "
                          f"3 * tree_depth = {3 * c['tree_depth']}")
    # tent values reach S + 2, pou weights a window's interior radius + 1
    top = max(int(max(c["tree_S_list"])) + 2, c["grid_half_width"] + 1,
              c["wreath_radius"] + 1)
    _powers_fit(p, math.log(top), f"a tent value or pou weight up to {top}")
    rows, checks = [], []
    grid = grid_space(2, c["grid_half_width"])

    @functools.cache
    def grid_cover(L):      # each level built once; None where it raises
        try:
            return zk_cover(grid, 2, L, strict=False)
        except ContractViolation:
            return None

    @functools.cache
    def grid_stats(L):      # each level's kernel measured once
        return kernel_stats(pou_kernel(grid_cover(L)[0], p))

    def grid_kernel_stats(S):   # the largest level of mesh at most S
        for L in range(max(1, int(S) // 2), 0, -1):
            built = grid_cover(L)
            if built is not None and built[1].mesh <= S:
                return grid_stats(L)
        return None

    tree = tree_ball(3, c["tree_depth"])

    def tree_kernel_stats(S):
        return kernel_stats(tree_kernel_tent(tree, int(S), p))

    # each curve's measured constant per S, its running minimum (a larger
    # support budget can reuse a smaller kernel), and on the tree the
    # interpolation bound (8 / S) log(S) / p for S >= e^p; a curve with
    # no kernel of support radius at most S at some S reports no rows
    for name, stats_at, S_list in (("grid2", grid_kernel_stats, c["grid_S_list"]),
                                   ("tree", tree_kernel_stats, c["tree_S_list"])):
        curve, running = [], None
        for S in sorted(S_list):
            ks = stats_at(S)
            if ks is None or ks.support_radius > S:
                _check(checks, f"{name} profile",
                       f"no kernel construction available at S={S}",
                       "a kernel at every S", False, lambda: S)
                curve = []
                break
            running = ks.lipschitz if running is None else min(running, ks.lipschitz)
            row = {"space": name, "S": S, "eps_upper": running,
                   "eps_measured": ks.lipschitz}
            if name == "tree" and S >= math.exp(p):
                row["mazur_bound"] = (1.0 / p) * (8.0 / S) * math.log(S)
            curve.append(row)
        rows.extend(curve)

    ball = lamplighter_ball(c["wreath_radius"], certify=False)
    wreath_rows = []
    for L in c["wreath_L_list"]:
        try:
            cover, stats, _ = wreath_cover(ball, L)
        except ContractViolation as exc:
            _check(checks, f"wreath L={L} cover", str(exc), "its contract",
                   False, lambda: exc.witness)
            continue
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern)
        S = max(2.0, float(stats.mesh))
        wreath_rows.append({"space": "wreath", "S": stats.mesh,
                            "eps_measured": ks.lipschitz,
                            "eps_upper": ks.lipschitz,
                            "shape_log_S_over_cbrt_S": math.log(S) / S ** (1 / 3)})
    # shape comparison, fitted constant: reported, never asserted
    fitted = max((row["eps_measured"] / row["shape_log_S_over_cbrt_S"]
                  for row in wreath_rows), default=0.0)
    for row in wreath_rows:
        row["fitted_C"] = fitted
    rows.extend(wreath_rows)

    worst, _, ok = _mazur_check(checks, c["mazur_dim"], c["mazur_pairs"],
                                c["seed"])
    rows.append({"space": "mazur q=2 p=1", "worst_ratio": worst, "bound": 2.0,
                 "ok": ok})
    return Result(rows, checks)


@experiment("embed", depth=integer(14, lo=1), p=number(2, lo=1), a=number(1.0),
            S_levels=listing([2, 4, 8, 16, 32], int, lo=2, min_len=2,
                             increasing=True),
            sample_points=integer(120, lo=2))
def run_embed(c):
    """The tree's compression embedding from tent kernels at S_levels: its
    Lipschitz certificate and floor on a seeded sample (criterion 7)."""
    p, levels = c["p"], c["S_levels"]
    if max(levels[:-1]) > 2 * c["depth"]:    # the root's ray: the spine
        raise ConfigError(f"S_levels below the top must stay at most "
                          f"2 * depth = {2 * c['depth']}")
    # tent values reach S + 2, and the weight takes u(S) = S (log S)^(-e)
    # at each level, times a kernel difference of at most 2 in a distance
    e = (1.0 + c["a"]) / p
    _powers_fit(p, max(math.log(max(levels[:-1]) + 2),
                       max(math.log(2 * S) - e * math.log(math.log(S)) for S in levels)),
                f"a tent value or 2 u(S) over S_levels (a={c['a']})")
    u = overlog_shape(c["a"], p)
    curve = [(float(S), float(S)) for S in levels]   # linear mesh growth
    # the weight takes u(S) at each level, a closed form of a, p and the
    # levels: one that falls, or rises nowhere (every level weighing 0),
    # is the caller's config
    try:
        weight = weight_from_type(u, curve, cutoff=levels[0])
    except ContractViolation as exc:
        fall = exc.witness
        raise ConfigError(f"S_levels: the composed weight falls from "
                          f"{fall['from']} to {fall['to']} at S={fall['breakpoint']:g} "
                          f"(a={c['a']}, p={p})") from None
    if weight.values[-1] <= weight.values[0]:
        raise ConfigError(f"S_levels: the composed weight is flat (a={c['a']}, "
                          f"p={p}): u({levels[0]}) = {weight.values[0]} and "
                          f"u({levels[-1]}) = {weight.values[-1]}, so every "
                          f"level weighs 0")
    tree = tree_ball(3, c["depth"])
    field_levels = []
    for S in levels[:-1]:
        kern = tree_kernel_tent(tree, S, p)
        ks = kernel_stats(kern)
        field_levels.append((S, kern, ks.lipschitz))
    theta = build_embedding(KernelField(field_levels, top=levels[-1]),
                            weight, x0=(), p=p)
    C, domain = theta.theoretical_C, theta.domain
    rng = random.Random(c["seed"])
    sample = [domain.points[rng.randrange(len(domain))]
              for _ in range(c["sample_points"])]
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i + 1:]
             if a != b]
    report = compression_report(domain.dist, theta.distance, pairs,
                                theoretical_C=C)
    checks = []
    _check(checks, "distinct sampled pairs", len(pairs), 1, bool(pairs),
           lambda: sample[0])
    _check(checks, "Lipschitz estimate", report.lipschitz_estimate, C,
           report.lipschitz_estimate <= C * (1 + 1e-9),
           lambda: report.lipschitz_pair)
    low = [(d, lo, theta.floor(d)) for d, lo in report.rho_minus
           if lo < theta.floor(d) - 1e-6]
    _check(checks, "distances below the compression floor", len(low), 0,
           not low, lambda: low[0])
    rows = report.csv_rows(floor_fn=theta.floor)
    rows.append({"d": "theoretical_C", "rho_minus": C,
                 "rho_plus": report.lipschitz_estimate})
    return Result(rows, checks)


@experiment("cp-check", p=number(2, lo=1), a=number(1.0), c=number(2.0),
            c_overlog=number(None), subdivisions=integer(64, lo=1),
            T_identity=number(math.e ** 20, lo=1),
            T_overlog=number(math.e ** 45, lo=1))
def run_cp_check(c):
    """The admissibility integral of the identity shape (must diverge) and
    of u(t) = t (log t)^(-(1+a)/p) (must converge, stably under refinement)
    from the cutoffs c, c_overlog to T_* (criterion 10)."""
    p, a, subdiv = c["p"], c["a"], c["subdivisions"]
    # the overlog shape decreases below t = dip and increases past it
    if (1.0 + a) / p >= math.log(c["T_overlog"]):
        raise ConfigError("T_overlog must exceed e^((1+a)/p)")
    # the sums take t^p and u(t)^p below the grid's top T_overlog 2^(1/subdiv)
    log_top = math.log(c["T_overlog"]) + math.log(2) / subdiv
    if p * log_top + max(0.0, -(1 + a) * math.log(log_top)) >= math.log(sys.float_info.max):
        raise ConfigError(f"p = {p}, a = {a}: t^p or u(t)^p at T_overlog "
                          f"2^(1/subdivisions) passes the float range")
    dip = math.exp((1.0 + a) / p)
    c_over = c["c_overlog"]
    if c_over is None:
        c_over = max(c["c"], dip + 0.2)
    if not 1 < c["c"] < c["T_identity"] or not dip <= c_over < c["T_overlog"]:
        raise ConfigError(f"need 1 < c < T_identity and e^((1+a)/p) = {dip} "
                          f"<= c_overlog < T_overlog")
    rows = []

    def emit(name, out, extra=None):
        # one row per doubling of the truncation point, then the summary
        rows.extend({"shape": name, "T": T, "partial_integral": partial,
                     "verdict": out["verdict"]}
                    for T, partial in out["rows"][subdiv - 1::subdiv])
        rows.append({"shape": name, "T": out["rows"][-1][0],
                     "partial_integral": out["value"],
                     "verdict": out["verdict"], "tail": out["tail_estimate"],
                     **(extra or {})})

    ident = shape_condition(lambda t: t, 1, c["c"], c["T_identity"],
                            subdivisions=subdiv)
    emit("identity", ident)
    u = overlog_shape(a, p)
    over = shape_condition(u, p, c_over, c["T_overlog"], subdivisions=subdiv)
    fine = shape_condition(u, p, c_over, c["T_overlog"],
                           subdivisions=2 * subdiv)
    rel = abs(fine["value"] - over["value"]) / max(over["value"], 1e-12)
    emit(f"overlog a={a}", over, extra={"relative_change": rel})
    checks = []
    _check(checks, "identity verdict", ident["verdict"], "diverging",
           ident["verdict"] == "diverging", lambda: ident["rows"][-1])
    _check(checks, "overlog verdict", over["verdict"], "converging",
           over["verdict"] == "converging",
           lambda: (*over["rows"][-1], over["tail_estimate"]))
    _check(checks, "overlog refinement change", rel, 1e-2, rel < 1e-2,
           lambda: (over["value"], fine["value"]))
    return Result(rows, checks)


# criterion 9's sizes: Z^2 in the zero-sum R^4, plus image points moved by bumps
PULLBACK_HALF_WIDTH = 10
PULLBACK_BUMPS = ((Fraction(1, 3), Fraction(-1, 3), 0, 0),
                  (0, 0, Fraction(1, 3), Fraction(-1, 3)),
                  (Fraction(1, 5), Fraction(-1, 5), Fraction(2, 5), Fraction(-2, 5)))
PULLBACK_BUMP_DRAWS = 40
PULLBACK_PAIR_DRAWS = 2000


@experiment("pullback-check")
def run_pullback_check(c):
    """The exact l1 pou kernel xi of a lattice cell cover U of a rational
    plane sample, pulled back along the grid's embedding f, keeps each
    row's mass and contracts differences, rho_f(S(f*xi)) <= 3 S(xi), and
    rho_plus(L(f*U)) >= L(U), rho_minus(S(f*U)) <= S(U) (criterion 9)."""
    rng = random.Random(c["seed"])
    f = embed_grid_point
    grid = grid_space(2, PULLBACK_HALF_WIDTH)
    points = [f(z) for z in grid.points]
    for _ in range(PULLBACK_BUMP_DRAWS):
        z, bump = rng.choice(grid.points), rng.choice(PULLBACK_BUMPS)
        y = tuple(a + b for a, b in zip(f(z), bump))
        if y not in points:
            points.append(y)
    rad = max(sum(map(abs, y)) for y in points)
    target = rational_window(points, [rad - sum(map(abs, y)) for y in points],
                             "plane sample")
    spec = LatticeCoverSpec.standard(4, scale=2)
    cover = grouped_cover(target, lambda i: membership_or_fail(points[i], spec),
                          "plane cells")
    xi = pou_kernel(cover, 1, exact=True)
    sigma = pullback_kernel(f, grid, xi)
    draws = ((rng.choice(grid.points), rng.choice(grid.points))
             for _ in range(PULLBACK_PAIR_DRAWS))
    pairs = [(a, b) for a, b in draws if a != b]
    source = {x: xi.row(target.index[f(x)]) for x in grid.points}
    gaps = [(abs(sum(sigma.row(i).values()) - sum(source[x].values())), x)
            for i, x in enumerate(grid.points)]
    off_norm = [x for gap, x in gaps if gap]
    margins = [(diff_norm(sigma.row(grid.index[a]), sigma.row(grid.index[b]), 1)
                - diff_norm(source[a], source[b], 1), (a, b)) for a, b in pairs]
    stretched = [pair for margin, pair in margins if margin > 0]
    margin = max([0] + [m for m, _ in margins])
    s_sigma, s_xi = sigma.support_radius()[0], xi.support_radius()[0]
    env = Envelopes((grid.dist(a, b), target.dist(f(a), f(b))) for a, b in pairs)
    rho = env.minus(s_sigma)
    pulled = check_pullback_inequalities(env, cover, pullback_cover(f, grid, cover))
    rows = [{"target_points": len(target), "sets": len(cover), "pairs": len(pairs),
             "off_norm_rows": len(off_norm), "norm_error": max(g for g, _ in gaps),
             "contraction_margin": margin, "support_radius_sigma": s_sigma,
             "support_radius_xi": s_xi, "rho_f_at_support": rho,
             **{k: v for k, v in pulled.items() if not k.endswith("_ok")}}]
    checks = []
    _check(checks, "rows off their source mass", len(off_norm), 0,
           not off_norm, lambda: off_norm[0])
    _check(checks, "contraction margin", margin, 0, not stretched,
           lambda: stretched[0])
    for name, t, value, bound, ok in (
            ("rho_f", s_sigma, rho, 3 * s_xi, rho is not None and rho <= 3 * s_xi),
            ("rho_plus", pulled["pulled_lebesgue"],
             pulled["rho_plus_at_pulled_lebesgue"], pulled["orig_lebesgue"],
             pulled["plus_ok"]),
            ("rho_minus", pulled["pulled_mesh"], pulled["rho_minus_at_pulled_mesh"],
             pulled["orig_mesh"], pulled["minus_ok"])):
        _check(checks, f"{name} at {t}", value, bound, ok,
               lambda: f"no pair at distance >= {t}" if value is None
               else f"{name}({t}) = {value}")
    return Result(rows, checks)
