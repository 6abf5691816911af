"""Experiments: one definition per command-line subcommand, shared with
the acceptance suite.  Each is a function ``cfg -> Result(rows, checks)``
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
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .covers import (balls_cover, cover_stats, delta_consistency_report,
                     interval_cover)
from .embeddings import (KernelField, build_embedding, compression_report,
                         overlog_shape, shape_condition, weight_from_type)
from .errors import ConfigError, ContractViolation, CoverageError
from .kernels import (epsilon_profile_upper, kernel_stats, mazur_pairs_check,
                      p_norm, pou_kernel, pou_lipschitz_bound, tent_norm_floor,
                      tent_profile, tree_kernel_tent)
from .lamplighter import (bfs_ball, block_window, lamp_coordinates,
                          lamplighter_ball, word_length)
from .lattice import (BoxCoverSpec, LatticeCoverSpec, cell_contains,
                      cell_contains_bruteforce, in_family_separation_bound,
                      membership, zk_cover)
from .spaces import grid_space, tree_ball
from .wreath import wreath_cover


Check = namedtuple("Check", "name value bound ok witness")
Result = namedtuple("Result", "rows checks")


def _check(checks, name, value, bound, ok, witness):
    """Record one check; `witness` is a callable, called only on failure."""
    checks.append(Check(name, value, bound, ok, None if ok else witness()))
    return ok


# A parameter is (default, description, test).  The default is REQUIRED,
# or None when the body derives the value from the others.
REQUIRED = object()


def _scalar(kind, lo):
    """Description and test of an int (kind int) or a finite real >= lo."""
    def test(v):
        real = type(v) is float and kind is float and math.isfinite(v)
        return (type(v) is int or real) and (lo is None or v >= lo)
    return ("an integer" if kind is int else "a number") + (
        "" if lo is None else f" >= {lo}"), test


def integer(default=REQUIRED, lo=None):
    return (default, *_scalar(int, lo))


def number(default, lo=None):
    return (default, *_scalar(float, lo))


def flag(default):
    return default, "true or false", lambda v: type(v) is bool


def choice(*options):
    """One of the options; the first is the default."""
    return options[0], f"one of {', '.join(options)}", lambda v: v in options


def listing(default, kind, lo=None, min_len=0, increasing=False):
    what, test = _scalar(kind, lo)
    return (default, f"a {'strictly increasing ' * increasing}list of at least "
                     f"{min_len} items, each {what}",
            lambda v: (isinstance(v, list) and len(v) >= min_len
                       and all(map(test, v))
                       and (not increasing
                            or all(a < b for a, b in zip(v, v[1:])))))


def _resolve(params, cfg):
    unknown = sorted(set(cfg) - set(params))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(params)}")
    out = {}
    for key, (default, what, test) in params.items():
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
    becomes one failing check named after the experiment."""
    params["seed"] = integer(0)

    def register(body):
        @functools.wraps(body)
        def run(cfg):
            resolved = _resolve(params, cfg)
            try:
                return body(resolved)
            except (ContractViolation, CoverageError) as exc:
                return Result([], [Check(name, str(exc), "its contract", False,
                                         exc.witness)])
        EXPERIMENTS[name] = run
        return run

    return register


def _kernel_checks(checks, at, ks, eps_bound, radius_bound):
    """Unit rows, support radius and Lipschitz constant of one kernel."""
    return all([
        _check(checks, f"{at} norm error", ks.norm_error, 1e-9,
               ks.norm_error <= 1e-9, lambda: ks.norm_error_point),
        _check(checks, f"{at} support radius", ks.support_radius, radius_bound,
               ks.support_radius <= radius_bound, lambda: ks.support_point),
        _check(checks, f"{at} eps", ks.lipschitz, eps_bound,
               ks.lipschitz <= eps_bound + 1e-9, lambda: ks.argmax_pair),
    ])


@experiment("zk-cover", k=integer(lo=1), L=integer(lo=1),
            half_width=integer(40, lo=1), strict=flag(True))
def run_zk_cover(c):
    """Certified cover of a Z^k box at Lebesgue level L; with strict its
    mesh must meet the advertised (2k^2-2k+1) L (criterion 4)."""
    k, L = c["k"], c["L"]
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
    if c["strict"]:
        _check(checks, f"mesh of {cover.name}", stats.mesh, bound,
               stats.mesh <= bound, lambda: stats.mesh_witness)
    return Result(rows, checks)


@experiment("voronoi-check", n=integer(lo=2), samples=integer(10_000, lo=1),
            box=integer(None, lo=1))
def run_voronoi_check(c):
    """Sampled zero-sum points against the permutohedron cell and the
    lattice cover, and the separation of lattice translates in a box
    (criterion 3).  n is even; box defaults to 6, 2, 1 for n = 2, 4, 6."""
    n, samples = c["n"], c["samples"]
    if n % 2:
        raise ConfigError(f"n must be even, got {n}")
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
    box = c["box"] or {2: 6, 4: 2, 6: 1}.get(n, 1)
    pts = [combo + (-sum(combo),)
           for combo in product(range(-box, box + 1), repeat=n - 1)
           if abs(sum(combo)) <= box]
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
        "translate_pairs": len(pts) * (len(pts) - 1) // 2,
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
    if kind == "interval":
        cover = interval_cover(grid_space(1, half_width))
    elif kind == "balls":
        cover = balls_cover(grid_space(2, half_width), c["r"])
    else:
        window = grid_space(c["k"], half_width)
        cover, _, _ = zk_cover(window, c["k"], c["L"], strict=False)
    stats = cover_stats(cover)
    min_interior = max(0, stats.lebesgue - 1)
    rows, checks = [], []
    for p in c["p_list"]:
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, min_interior=min_interior, seed=c["seed"])
        bound = pou_lipschitz_bound(stats, p=p)
        ok = _kernel_checks(checks, f"{cover.name} p={p}", ks, bound,
                            stats.mesh)
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
    tree = tree_ball(c["valence"], c["depth"])
    rows, checks = [], []
    for S in c["S_list"]:
        for p in c["p_list"]:
            kern = tree_kernel_tent(tree, S, p)
            ks = kernel_stats(kern, seed=c["seed"])
            bound = 8.0 / S
            floor = tent_norm_floor(S, p)
            raw_norm = p_norm(tent_profile(S), p)
            ok = _kernel_checks(checks, f"S={S} p={p}", ks, bound, S)
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
        for _ in range(c["pairs"]):
            a, b = rng.choice(block.points), rng.choice(block.points)
            l1 = sum(abs(x - y) for x, y in zip(lamp_coordinates(a, m),
                                                lamp_coordinates(b, m)))
            dk = block.dist(a, b)
            if not (dk - 4 * (m - 1) <= l1 <= dk):
                bad.append((a, b))
        rows.append({"m": m, "pairs": c["pairs"],
                     "sandwich_violations": len(bad)})
        _check(checks, f"m={m} coordinate sandwich violations", len(bad), 0,
               not bad, lambda: bad[0])
    return Result(rows, checks)


@experiment("lamplighter-cover", radius=integer(10, lo=0), L=integer(1, lo=1))
def run_lamplighter_cover(c):
    """The wreath cover of a lamplighter ball against its contract:
    multiplicity <= 96 L, level >= L, mesh <= 36864 L^3 (criterion 11)."""
    radius, L = c["radius"], c["L"]
    ball = lamplighter_ball(radius, certify=False)
    # coverage: cover_stats raises CoverageError at the first uncovered point
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
    _check(checks, "certified level", stats.lebesgue, L,
           stats.lebesgue >= L or stats.lebesgue_truncated,
           lambda: stats.lebesgue_limit)
    _check(checks, "mesh", stats.mesh, mesh_bound, stats.mesh <= mesh_bound,
           lambda: stats.mesh_witness)
    return Result(rows, checks)


@experiment("profile", p=number(2, lo=1), grid_half_width=integer(20, lo=1),
            tree_depth=integer(10, lo=1),
            grid_S_list=listing([2, 4, 8], float),
            tree_S_list=listing([2, 4, 8, 16], float),
            wreath_radius=integer(5, lo=1), wreath_L_list=listing([1], int, lo=1),
            wreath_pairs=integer(3000, lo=0), mazur_dim=integer(16, lo=1),
            mazur_pairs=integer(2000, lo=1))
def run_profile(c):
    """Epsilon profiles of the plane, tree and lamplighter group, and the
    Mazur map's q/p contraction on sampled unit pairs (criterion 12)."""
    p, seed = c["p"], c["seed"]
    rows, checks = [], []
    grid = grid_space(2, c["grid_half_width"])

    def grid_builder(S):
        for L in range(max(1, int(S) // 2), 0, -1):
            try:
                cover, stats, _ = zk_cover(grid, 2, L, strict=False)
            except (ContractViolation, CoverageError):
                continue
            if stats.mesh <= S:
                kern = pou_kernel(cover, p)
                return kern, kernel_stats(kern, seed=seed)
        return None

    tree = tree_ball(3, c["tree_depth"])

    def tree_builder(S):
        if S < 1 or not tree.ray_domain(int(S)):
            return None
        kern = tree_kernel_tent(tree, int(S), p)
        return kern, kernel_stats(kern, seed=seed)

    for name, builder, S_list, mazur_ref in (
            ("grid2", grid_builder, c["grid_S_list"], None),
            ("tree", tree_builder, c["tree_S_list"],
             (0.0, lambda S: 8.0 / S))):
        try:
            prof = epsilon_profile_upper(S_list, p, builder,
                                         mazur_reference=mazur_ref)
        except ContractViolation as exc:
            _check(checks, f"{name} profile", str(exc), "a kernel at every S",
                   False, lambda: exc.witness)
            continue
        rows.extend({"space": name, **row} for row in prof)

    ball = lamplighter_ball(c["wreath_radius"], certify=False)
    wreath_rows = []
    for L in c["wreath_L_list"]:
        try:
            cover, stats, _ = wreath_cover(ball, L)
        except (ContractViolation, CoverageError) as exc:
            _check(checks, f"wreath L={L} cover", str(exc), "its contract",
                   False, lambda: exc.witness)
            continue
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, seed=seed, sample_pairs=c["wreath_pairs"])
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

    worst, draw = mazur_pairs_check(c["mazur_dim"], 2, 1, c["mazur_pairs"],
                                    seed=seed)
    ok = _check(checks, "mazur ratio q/p", worst, 2.0, worst <= 2.0 + 1e-9,
                lambda: f"draw {draw} of seed {seed}")
    rows.append({"space": "mazur q=2 p=1", "worst_ratio": worst, "bound": 2.0,
                 "ok": ok})
    return Result(rows, checks)


@experiment("embed", depth=integer(14, lo=1), p=number(2, lo=1), a=number(1.0),
            S_levels=listing([2, 4, 8, 16, 32], int, lo=2, min_len=2,
                             increasing=True),
            sample_points=integer(120, lo=1))
def run_embed(c):
    """The tree's compression embedding from tent kernels at S_levels: its
    Lipschitz certificate and floor on a seeded sample (criterion 7)."""
    p, levels = c["p"], c["S_levels"]
    if max(levels[:-1]) > 2 * c["depth"]:    # the root's ray: the spine
        raise ConfigError(f"S_levels below the top must stay at most "
                          f"2 * depth = {2 * c['depth']}")
    u = overlog_shape(c["a"], p)
    curve = [(float(S), float(S)) for S in levels]   # linear mesh growth
    weight = weight_from_type(u, curve, cutoff=levels[0])
    tree = tree_ball(3, c["depth"])
    field_levels = []
    for S in levels[:-1]:
        kern = tree_kernel_tent(tree, S, p)
        ks = kernel_stats(kern, seed=c["seed"], sample_pairs=2000)
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
    of t (log t)^(-(1+a)/p) (must converge, stably under refinement) from
    the cutoffs c, c_overlog to T_* (criterion 10)."""
    p, a, subdiv = c["p"], c["a"], c["subdivisions"]
    # the overlog shape decreases below t = dip and increases past it
    if (1.0 + a) / p >= math.log(c["T_overlog"]):
        raise ConfigError("T_overlog must exceed e^((1+a)/p)")
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
