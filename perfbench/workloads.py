"""The benchmark's workloads: acceptance criteria 1, 11 and 7.

Each workload is split where a user's run splits: ``setup`` builds the
input windows, and ``solve`` runs the criterion's computation on them and
checks every result against the criterion's contract.  Both call the library only through module
attributes (``covers.cover_stats``, not a name imported at load time), so
the tracer's rebinding reaches every call they make.

``solve`` returns ``(checks, certificate, expect)``:

checks       list of ``[name, ok]``, one per contract comparison
certificate  the exact values behind the checks, printed so that a silent
             change in any of them shows
expect       counts the workload itself knows, which the traced run's
             counters must reproduce
"""

from __future__ import annotations

import random

from coarse_embed import (covers, embeddings, errors, kernels, lamplighter,
                          lattice, spaces, wreath)

# Window sizes.  "full" is the acceptance suite's own configuration;
# "bench" shrinks only the windows, keeping every construction, parameter
# and contract, so that a fresh-interpreter repetition takes seconds;
# "smoke" is for the benchmark's own checks.
SIZES = {
    "grid-kernel": {"full": {"line": 100, "plane": 40},
                    "bench": {"line": 100, "plane": 16},
                    "smoke": {"line": 30, "plane": 5}},
    "wreath-cover": {"full": {"radius": 10},
                     "bench": {"radius": 7},
                     "smoke": {"radius": 5}},
    "tree-embed": {"full": {"depth": 14},
                   "bench": {"depth": 12},
                   "smoke": {"depth": 9}},
}

TOL = 1e-9


def _kernel_certificate(ks):
    return {"support_radius": ks.support_radius, "lipschitz": ks.lipschitz,
            "policy": ks.policy, "pairs": ks.pairs_evaluated,
            "norm_error": ks.norm_error}


def _cover_certificate(stats):
    return {"lebesgue": stats.lebesgue, "truncated": stats.lebesgue_truncated,
            "multiplicity": stats.multiplicity, "mesh": str(stats.mesh),
            "mesh_exact": stats.mesh_exact,
            "mesh_witnessed": str(stats.mesh_witnessed),
            "sets": stats.n_sets}


# ---------------------------------------------------------------------------
# grid-kernel: criterion 1, partition-of-unity kernels on Z and Z^2 covers


def grid_kernel_setup(size):
    return {"line": spaces.grid_space(1, size["line"]),
            "plane": spaces.grid_space(2, size["plane"])}


def grid_kernel_solve(inputs, seed):
    line, plane = inputs["line"], inputs["plane"]
    checks, cert = [], {}
    pairs = 0

    def check(name, cover, stats):
        nonlocal pairs
        cert[name] = {"cover": _cover_certificate(stats)}
        for p in (1, 2, 3):
            kern = kernels.pou_kernel(cover, p)
            ks = kernels.kernel_stats(kern, min_interior=max(0, stats.lebesgue - 1),
                                      seed=seed)
            bound = kernels.pou_lipschitz_bound(stats, p=p)
            pairs += ks.pairs_evaluated
            cert[name][f"p{p}"] = dict(_kernel_certificate(ks), bound=bound)
            checks.append([f"{name} p={p} norm_error<={TOL}", ks.norm_error <= TOL])
            checks.append([f"{name} p={p} support<=mesh", ks.support_radius <= stats.mesh])
            checks.append([f"{name} p={p} lipschitz<=bound",
                           ks.lipschitz <= bound + TOL])

    cov = covers.interval_cover(line)
    check("interval", cov, covers.cover_stats(cov))
    cov = covers.balls_cover(plane, 2)
    check("balls", cov, covers.cover_stats(cov, scan_cap=4))
    for L in (1, 3):
        cov, stats, _ = lattice.zk_cover(plane, 2, L, strict=False)
        check(f"zk L={L}", cov, stats)
    return checks, cert, {"kernels.pairs_evaluated": pairs,
                          "lattice.window_points": len(plane)}


# ---------------------------------------------------------------------------
# wreath-cover: criterion 11, the composed cover of a lamplighter ball


def wreath_cover_setup(size):
    return {"ball": lamplighter.lamplighter_ball(size["radius"], certify=False)}


def wreath_cover_solve(inputs, seed):
    # No sampling: the seed has nothing to choose here.
    ball = inputs["ball"]
    try:
        cover, stats, detail = wreath.wreath_cover(ball, 1)
    except errors.ContractViolation as exc:
        return [["wreath_cover contract", False]], {"error": str(exc)}, {}
    coverage = covers.lebesgue_condition(cover, 1)
    checks = [
        ["wreath_cover contract", True],
        ["coverage", coverage is None],
        ["multiplicity<=96", stats.multiplicity <= 96],
        ["lebesgue>=1", stats.lebesgue >= 1 or stats.lebesgue_truncated],
        ["mesh<=36864", stats.mesh <= 36864],
    ]
    cert = {"elements": len(ball), "cover": _cover_certificate(stats),
            "block_m": detail["m"],
            "block_grid": _cover_certificate(detail["grid_stats"])}
    return checks, cert, {"wreath.sets": len(cover)}


# ---------------------------------------------------------------------------
# tree-embed: criterion 7, the compression floor of a tree embedding


def tree_embed_setup(size):
    return {"tree": spaces.tree_ball(3, size["depth"])}


def tree_embed_solve(inputs, seed):
    tree = inputs["tree"]
    p, a = 2, 1.0
    levels = [2, 4, 8, 16]
    top = 32
    u = embeddings.overlog_shape(a, p)
    curve = [(float(S), float(S)) for S in levels + [top]]
    weight = embeddings.weight_from_type(u, curve, cutoff=float(levels[0]))
    field_levels = []
    pairs_evaluated = 0
    for S in levels:
        kern = kernels.tree_kernel_tent(tree, S, p)
        ks = kernels.kernel_stats(kern, seed=seed, sample_pairs=3000)
        pairs_evaluated += ks.pairs_evaluated
        field_levels.append((S, kern, ks.lipschitz))
    field = embeddings.KernelField(field_levels, top=top)
    theta = embeddings.build_embedding(field, weight, x0=(), p=p)
    dom = theta.domain
    # The acceptance suite samples with Random(3); seed 0 reproduces it.
    rng = random.Random(seed + 3)
    sample = {dom.points[rng.randrange(len(dom))] for _ in range(130)}
    sample = sorted(sample, key=str)
    pairs = [(x, y) for i, x in enumerate(sample) for y in sample[i + 1:]]
    checks = []
    lip_bad = 0
    distances = 0
    for x, y in pairs:
        d = dom.dist(x, y)
        if d == 0:
            continue
        e = theta.distance(x, y)
        distances += 1
        ok = e <= theta.theoretical_C * d + 1e-6
        lip_bad += not ok
        checks.append(["lipschitz", ok])
    report = embeddings.compression_report(dom.dist, theta.distance, pairs,
                                           theoretical_C=theta.theoretical_C)
    distances += len(report.rows)
    floor_bad = 0
    for d, lo in report.rho_minus:
        ok = lo >= theta.floor(d) - 1e-6
        floor_bad += not ok
        checks.append(["floor", ok])
    cert = {"pairs": len(pairs), "C": theta.theoretical_C,
            "eps": [eps for _, _, eps in field_levels],
            "lipschitz_violations": lip_bad, "floor_violations": floor_bad,
            "rho_minus": report.rho_minus}
    return checks, cert, {"kernels.pairs_evaluated": pairs_evaluated,
                          "embeddings.distance_calls": distances}


WORKLOADS = {
    "grid-kernel": (grid_kernel_setup, grid_kernel_solve),
    "wreath-cover": (wreath_cover_setup, wreath_cover_solve),
    "tree-embed": (tree_embed_setup, tree_embed_solve),
}
