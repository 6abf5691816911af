"""Command line front end: one experiment per invocation.

Each subcommand builds the relevant construction, measures it, writes a
CSV and a JSON report side by side, and exits 0 only if every embedded
assertion of the producing modules held.  Exit codes: 0 success, 1
assertion or contract failure (the report carries the witnesses), 2
configuration error, 3 size cap exceeded.

A JSON config file may supply any parameter; explicit flags override it.
The environment variable COARSE_EMBED_CAP bounds global construction
sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .covers import (balls_cover, cover_stats, delta_consistency_report,
                     interval_cover)
from .embeddings import (KernelField, build_embedding, compression_report,
                         overlog_shape, shape_condition, weight_from_type)
from .errors import CapExceeded, ContractViolation, CoverageError
from .kernels import (kernel_stats, mazur_pairs_check, pou_kernel,
                      pou_lipschitz_bound, tent_norm_floor, tree_kernel_tent,
                      epsilon_profile_upper)
from .lamplighter import (bfs_ball, block_window, lamp_coordinates,
                          lamplighter_ball, word_length)
from .lattice import (BoxCoverSpec, LatticeCoverSpec, cell_contains,
                      cell_contains_bruteforce,
                      in_family_separation_bound, membership, zk_cover)
from .reports import write_report
from .spaces import grid_space, tree_ball
from .wreath import wreath_cover

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


def _fail(rows, message, witness=None):
    rows.append({"check": "FAILED", "detail": message,
                 "witness": repr(witness) if witness is not None else ""})
    return EXIT_ASSERT


def run_zk_cover(cfg, rows):
    k, L = cfg["k"], cfg["L"]
    window = grid_space(k, cfg.get("half_width", 40))
    status = EXIT_OK
    try:
        cover, stats, spec = zk_cover(window, k, L, strict=cfg.get("strict", True))
    except ContractViolation as exc:
        return _fail(rows, str(exc), exc.witness)
    bound = (2 * k * k - 2 * k + 1) * L
    # the winning family's own parameters name the cover
    if isinstance(spec, BoxCoverSpec):
        shape = {"side": spec.side, "growth": spec.growth}
    else:
        shape = {"scale": spec.scale, "thickening": spec.thickening}
    rows.append({
        "k": k, "L": L, **shape,
        "lebesgue": stats.lebesgue, "multiplicity": stats.multiplicity,
        "mesh": stats.mesh, "mesh_bound": bound, "n_sets": stats.n_sets,
        **{f"delta_p{p}": v for p, v in stats.delta.items()},
    })
    rows.extend(delta_consistency_report(stats))
    return status


def sample_zero_sum(rng, n, span=8, denominators=(1, 2, 3, 4, 6, 8)):
    from fractions import Fraction
    vec = [Fraction(rng.randrange(-span * n, span * n), rng.choice(denominators))
           for _ in range(n - 1)]
    vec.append(-sum(vec))
    return tuple(vec)


def run_voronoi_check(cfg, rows):
    from fractions import Fraction
    from itertools import product

    n = cfg["n"]
    samples = cfg.get("samples", 10_000)
    rng = random.Random(cfg.get("seed", 0))
    spec = LatticeCoverSpec.standard(n)
    mismatches = uncovered = max_mult = 0
    for _ in range(samples):
        x = sample_zero_sum(rng, n)
        fast = cell_contains(x, 0)
        slow = cell_contains_bruteforce(x, 0)
        if fast != slow:
            mismatches += 1
        found = membership(x, spec)
        if not found:
            uncovered += 1
        max_mult = max(max_mult, len(found))
    box = cfg.get("box", {2: 6, 4: 2, 6: 1}.get(n, 1))
    lattice_pts = []
    for combo in product(range(-box, box + 1), repeat=n - 1):
        last = -sum(combo)
        if abs(last) <= box:
            lattice_pts.append(tuple(combo) + (last,))
    worst_sep = None
    pair_count = 0
    for i, a in enumerate(lattice_pts):
        for b in lattice_pts[i + 1:]:
            delta = tuple(x - y for x, y in zip(a, b))
            bound = in_family_separation_bound(delta)
            pair_count += 1
            if worst_sep is None or bound < worst_sep:
                worst_sep = bound
    target = Fraction(1, n - 1)
    rows.append({
        "n": n, "samples": samples,
        "prefix_vs_bruteforce_mismatches": mismatches,
        "uncovered": uncovered, "max_multiplicity": max_mult,
        "separation_lower_bound": worst_sep, "separation_target": target,
        "translate_pairs": pair_count,
    })
    ok = (mismatches == 0 and uncovered == 0 and max_mult <= n
          and worst_sep is not None and worst_sep >= target)
    return EXIT_OK if ok else _fail(rows, "voronoi check failed")


def run_cover_kernel(cfg, rows):
    kind = cfg.get("cover", "interval")
    p_list = cfg.get("p_list", [1, 2, 3])
    status = EXIT_OK
    if kind == "interval":
        window = grid_space(1, cfg.get("half_width", 100))
        cover = interval_cover(window)
    elif kind == "balls":
        window = grid_space(2, cfg.get("half_width", 40))
        cover = balls_cover(window, cfg.get("r", 2))
    elif kind == "zk":
        window = grid_space(cfg.get("k", 2), cfg.get("half_width", 40))
        cover, _, _ = zk_cover(window, cfg.get("k", 2), cfg["L"], strict=False)
    else:
        raise ValueError(f"unknown cover kind {kind!r}")
    stats = cover_stats(cover, p_list=p_list)
    for p in p_list:
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, min_interior=max(0, stats.lebesgue - 1),
                          seed=cfg.get("seed", 0))
        bound = pou_lipschitz_bound(stats, p=p)
        ok = (ks.norm_error <= 1e-9 and ks.support_radius <= stats.mesh
              and ks.lipschitz <= bound + 1e-9)
        rows.append({
            "cover": cover.name, "p": p, "lebesgue": stats.lebesgue,
            "multiplicity": stats.multiplicity, "mesh": stats.mesh,
            "support_radius": ks.support_radius, "eps": ks.lipschitz,
            "eps_bound": bound, "norm_error": ks.norm_error,
            "policy": ks.policy, "ok": ok,
        })
        if not ok:
            status = _fail(rows, f"kernel bound failed for p={p}", ks.argmax_pair)
    return status


def run_tree_embed(cfg, rows):
    valence = cfg.get("valence", 3)
    depth = cfg.get("depth", 12)
    tree = tree_ball(valence, depth)
    status = EXIT_OK
    for S in cfg.get("S_list", [2, 4, 8, 16]):
        for p in cfg.get("p_list", [1, 2]):
            kern = tree_kernel_tent(tree, S, p)
            ks = kernel_stats(kern, seed=cfg.get("seed", 0))
            bound = 8.0 / S
            floor = tent_norm_floor(S, p)
            from .kernels import p_norm, tent_profile
            raw_norm = p_norm(tent_profile(S), p)
            ok = (ks.lipschitz <= bound + 1e-9 and ks.support_radius <= S
                  and raw_norm > floor)
            rows.append({
                "S": S, "p": p, "eps": ks.lipschitz, "bound_8_over_S": bound,
                "support_radius": ks.support_radius,
                "profile_norm": raw_norm, "norm_floor": floor,
                "norm_error": ks.norm_error, "ok": ok,
            })
            if not ok:
                status = _fail(rows, f"tent kernel failed at S={S}, p={p}")
    return status


def run_lamplighter_metric(cfg, rows):
    radius = cfg.get("radius", 8)
    try:
        depth = bfs_ball(radius, certify=False)
    except CapExceeded:
        raise
    mismatches = sum(1 for g, d in depth.items() if word_length(g) != d)
    rows.append({"radius": radius, "elements": len(depth),
                 "formula_mismatches": mismatches})
    status = EXIT_OK if mismatches == 0 else _fail(rows, "length formula mismatch")
    rng = random.Random(cfg.get("seed", 0))
    for m in cfg.get("m_list", [2, 3]):
        ball = lamplighter_ball(cfg.get("block_radius", 10), certify=False)
        block = block_window(ball, m)
        labels = block.points
        bad = 0
        for _ in range(cfg.get("pairs", 200)):
            a, b = rng.choice(labels), rng.choice(labels)
            va, vb = lamp_coordinates(a, m), lamp_coordinates(b, m)
            l1 = sum(abs(x - y) for x, y in zip(va, vb))
            dk = block.dist(a, b)
            if not (dk - 4 * (m - 1) <= l1 <= dk):
                bad += 1
        rows.append({"m": m, "pairs": cfg.get("pairs", 200),
                     "sandwich_violations": bad})
        if bad:
            status = _fail(rows, f"coordinate sandwich failed for m={m}")
    return status


def run_lamplighter_cover(cfg, rows):
    radius = cfg.get("radius", 10)
    L = cfg.get("L", 1)
    ball = lamplighter_ball(radius, certify=False)
    try:
        cover, stats, detail = wreath_cover(ball, L)
    except (ContractViolation, CoverageError) as exc:
        return _fail(rows, str(exc), getattr(exc, "witness", None))
    rows.append({
        "radius": radius, "L": L, "m": detail["m"],
        "elements": len(ball), "n_sets": stats.n_sets,
        "multiplicity": stats.multiplicity,
        "multiplicity_bound": detail["multiplicity_bound"],
        "lebesgue": stats.lebesgue, "lebesgue_truncated": stats.lebesgue_truncated,
        "mesh_upper": stats.mesh, "mesh_witnessed": stats.mesh_witnessed,
        "mesh_exact": stats.mesh_exact, "mesh_bound": detail["mesh_bound"],
    })
    return EXIT_OK


def run_profile(cfg, rows):
    p = cfg.get("p", 2)
    seed = cfg.get("seed", 0)
    status = EXIT_OK

    grid = grid_space(2, cfg.get("grid_half_width", 20))

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

    tree = tree_ball(3, cfg.get("tree_depth", 10))

    def tree_builder(S):
        if S < 1:
            return None
        kern = tree_kernel_tent(tree, int(S), p)
        return kern, kernel_stats(kern, seed=seed)

    for name, builder, S_list, mazur_ref in (
            ("grid2", grid_builder, cfg.get("grid_S_list", [2, 4, 8]), None),
            ("tree", tree_builder, cfg.get("tree_S_list", [2, 4, 8, 16]),
             (0.0, lambda S: 8.0 / S))):
        try:
            prof = epsilon_profile_upper(S_list, p, [builder],
                                         mazur_reference=mazur_ref)
        except ContractViolation as exc:
            status = _fail(rows, f"{name}: {exc}")
            continue
        for row in prof:
            rows.append({"space": name, **row})

    ball = lamplighter_ball(cfg.get("wreath_radius", 5), certify=False)
    wreath_rows = []
    for L in cfg.get("wreath_L_list", [1]):
        try:
            cover, stats, _ = wreath_cover(ball, L, check=False)
        except (ContractViolation, CoverageError) as exc:
            status = _fail(rows, f"wreath L={L}: {exc}")
            continue
        kern = pou_kernel(cover, p)
        ks = kernel_stats(kern, seed=seed, sample_pairs=cfg.get("wreath_pairs", 3000))
        wreath_rows.append({"space": "wreath", "S": stats.mesh,
                            "eps_measured": ks.lipschitz,
                            "eps_upper": ks.lipschitz})
    # shape comparison, fitted constant: reported, never asserted
    fitted = 0.0
    for row in wreath_rows:
        S = max(2.0, float(row["S"]))
        shape = math.log(S) / S ** (1.0 / 3.0)
        fitted = max(fitted, row["eps_measured"] / shape)
    for row in wreath_rows:
        S = max(2.0, float(row["S"]))
        shape = math.log(S) / S ** (1.0 / 3.0)
        row["shape_log_S_over_cbrt_S"] = shape
        row["fitted_C"] = fitted
        row["below_fitted_curve"] = row["eps_measured"] <= fitted * shape + 1e-12
        rows.append(row)
        if not row["below_fitted_curve"]:
            print("warning: wreath profile point above fitted curve", file=sys.stderr)

    worst = mazur_pairs_check(cfg.get("mazur_dim", 16), 2, 1,
                              cfg.get("mazur_pairs", 2000), seed=seed)
    rows.append({"space": "mazur q=2 p=1", "worst_ratio": worst, "bound": 2.0,
                 "ok": worst <= 2.0 + 1e-9})
    if worst > 2.0 + 1e-9:
        status = _fail(rows, "mazur ratio exceeded q/p")
    return status


def run_embed(cfg, rows):
    depth = cfg.get("depth", 14)
    p = cfg.get("p", 2)
    a = cfg.get("a", 1.0)
    levels = cfg.get("S_levels", [2, 4, 8, 16, 32])
    if (not isinstance(levels, list) or len(levels) < 2
            or not all(type(S) is int and S >= 2 for S in levels)
            or any(lo >= hi for lo, hi in zip(levels, levels[1:]))):
        raise ValueError(f"S_levels must be a strictly increasing list of at "
                         f"least 2 integers >= 2, got {levels!r}")
    tree = tree_ball(3, depth)
    u = overlog_shape(a, p)
    curve = [(float(S), float(S)) for S in levels]   # linear mesh growth
    weight = weight_from_type(u, curve, cutoff=levels[0])
    field_levels = []
    for S in levels[:-1]:
        kern = tree_kernel_tent(tree, S, p)
        ks = kernel_stats(kern, seed=cfg.get("seed", 0), sample_pairs=2000)
        field_levels.append((S, kern, ks.lipschitz))
    field = KernelField(field_levels, top=levels[-1])
    theta = build_embedding(field, weight, x0=(), p=p)
    rng = random.Random(cfg.get("seed", 0))
    domain = theta.domain
    sample = [domain.points[rng.randrange(len(domain))]
              for _ in range(cfg.get("sample_points", 120))]
    pairs = [(a_, b_) for i, a_ in enumerate(sample) for b_ in sample[i + 1:]
             if a_ != b_]
    report = compression_report(domain.dist, theta.distance, pairs,
                                theoretical_C=theta.theoretical_C)
    status = EXIT_OK
    if report.lipschitz_estimate > theta.theoretical_C * (1 + 1e-9):
        status = _fail(rows, "Lipschitz certificate violated")
    floor_fail = None
    for d, lo in report.rho_minus:
        if lo < theta.floor(d) - 1e-6:
            floor_fail = d
            break
    if floor_fail is not None:
        status = _fail(rows, f"compression floor violated at d={floor_fail}")
    rows.extend(report.csv_rows(floor_fn=theta.floor))
    rows.append({"d": "theoretical_C", "rho_minus": theta.theoretical_C,
                 "rho_plus": report.lipschitz_estimate})
    return status


def run_cp_check(cfg, rows):
    p = cfg.get("p", 2)
    a = cfg.get("a", 1.0)
    c = cfg.get("c", 2.0)
    # the overlog shape decreases below t = e^((1+a)/p); start past the dip
    c_over = cfg.get("c_overlog", max(c, math.e ** ((1.0 + a) / p) + 0.2))
    status = EXIT_OK
    subdiv = cfg.get("subdivisions", 64)

    def emit(name, out, extra=None):
        # one row per doubling of the truncation point, then the summary
        for i in range(subdiv - 1, len(out["rows"]), subdiv):
            T_i, partial = out["rows"][i]
            rows.append({"shape": name, "T": T_i, "partial_integral": partial,
                         "verdict": out["verdict"]})
        summary = {"shape": name, "T": out["rows"][-1][0],
                   "partial_integral": out["value"],
                   "verdict": out["verdict"], "tail": out["tail_estimate"]}
        if extra:
            summary.update(extra)
        rows.append(summary)

    ident = shape_condition(lambda t: t, 1, c, cfg.get("T_identity", math.e ** 20),
                            subdivisions=subdiv)
    emit("identity", ident)
    if ident["verdict"] != "diverging":
        status = _fail(rows, "identity shape not flagged diverging")
    over = shape_condition(overlog_shape(a, p), p, c_over,
                           cfg.get("T_overlog", math.e ** 45), subdivisions=subdiv)
    fine = shape_condition(overlog_shape(a, p), p, c_over,
                           cfg.get("T_overlog", math.e ** 45),
                           subdivisions=2 * subdiv)
    rel = abs(fine["value"] - over["value"]) / max(over["value"], 1e-12)
    emit(f"overlog a={a}", over, extra={"relative_change": rel})
    if over["verdict"] != "converging" or rel > 1e-2:
        status = _fail(rows, "overlog shape diagnostics failed")
    return status


RUNNERS = {
    "zk-cover": run_zk_cover,
    "voronoi-check": run_voronoi_check,
    "cover-kernel": run_cover_kernel,
    "tree-embed": run_tree_embed,
    "lamplighter-metric": run_lamplighter_metric,
    "lamplighter-cover": run_lamplighter_cover,
    "profile": run_profile,
    "embed": run_embed,
    "cp-check": run_cp_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coarse-embed",
        description="measure covers, kernels and embeddings on finite windows")
    parser.add_argument("experiment", choices=sorted(RUNNERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="report", help="output path base")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")
    return parser


def load_config(args):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    meta = {"experiment": args.experiment, "config": cfg}
    try:
        status = RUNNERS[args.experiment](cfg, rows)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (KeyError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolation, CoverageError) as exc:
        rows.append({"check": "FAILED", "detail": str(exc)})
        status = EXIT_ASSERT
    csv_path, json_path = write_report(args.out, rows, meta=meta)
    print(f"wrote {csv_path} and {json_path}; status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
