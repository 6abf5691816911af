"""Per-layer metrics and the tracer's self-check, computed from the records
of one traced repetition.

A record is ``[calls, total seconds, self seconds]`` (see tracer.py).
Setup metrics read the "setup" phase; all others read "solve".  A metric
of a layer the workload does not use is 0.  GLOSSARY.md explains each.
"""

from __future__ import annotations

_NONE = (0, 0.0, 0.0)


def _calls(recs, *names):
    return sum(recs.get(n, _NONE)[0] for n in names)


def _total(recs, *names):
    return sum(recs.get(n, _NONE)[1] for n in names)


def _self(recs, *names):
    return sum(recs.get(n, _NONE)[2] for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit, in the order they are printed.
UNITS = {
    "spaces.build_s": "s",
    "spaces.dist_calls": "count",
    "lamplighter.ball_s": "s",
    "lamplighter.lamp_parts_s": "s",
    "lamplighter.bfs_ball_calls": "count",
    "lamplighter.bfs_ball_s": "s",
    "lattice.membership_calls": "count",
    "lattice.membership_s": "s",
    "lattice.us_per_decode": "us",
    "lattice.pullback_s": "s",
    "lattice.zk_cover_s": "s",
    "lattice.candidates_tried": "ratio",
    "covers.cover_stats_s": "s",
    "covers.lebesgue_s": "s",
    "covers.lebesgue_levels_scanned": "count",
    "covers.mesh_s": "s",
    "covers.mesh_inexact": "count",
    "covers.multiplicity_s": "s",
    "covers.extend_by_cosets_s": "s",
    "kernels.pou_build_s": "s",
    "kernels.boundary_distance_calls": "count",
    "kernels.row_calls": "count",
    "kernels.row_s": "s",
    "kernels.support_radius_s": "s",
    "kernels.pairs_evaluated": "count",
    "kernels.pair_quotient_s": "s",
    "kernels.pair_quotients_per_s": "1/s",
    "kernels.norm_error_s": "s",
    "kernels.stats_s": "s",
    "embeddings.field_s": "s",
    "embeddings.distance_calls": "count",
    "embeddings.distance_s": "s",
    "embeddings.compression_report_s": "s",
    "wreath.cover_s": "s",
    "wreath.compose_self_s": "s",
    "wreath.sets": "count",
    "trace.overhead_s": "s",
}

# Metrics that count work rather than time it: they must repeat exactly.
COUNTS = [name for name, unit in UNITS.items() if unit == "count"] + [
    "lattice.candidates_tried"]


def layer_metrics(phases, expect):
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced repetitions too."""
    setup, solve = phases.get("setup", {}), phases.get("solve", {})
    pq = solve.get("kernels.Kernel.pair_quotient", _NONE)
    return {
        "spaces.build_s": _self(setup, "spaces.grid_space", "spaces.tree_ball",
                                "spaces.FiniteMetricSpace.__init__"),
        "spaces.dist_calls": _calls(solve, "spaces.l1_dist", "spaces.tree_dist",
                                    "lamplighter.label_dist"),
        "lamplighter.ball_s": _total(setup, "lamplighter.lamplighter_ball"),
        "lamplighter.lamp_parts_s": _self(solve, "lamplighter.lamp_parts_window"),
        "lamplighter.bfs_ball_calls": _calls(solve, "lamplighter.bfs_ball"),
        "lamplighter.bfs_ball_s": _self(solve, "lamplighter.bfs_ball"),
        "lattice.membership_calls": _calls(solve, "lattice.membership"),
        "lattice.membership_s": _self(solve, "lattice.membership"),
        "lattice.us_per_decode": 1e6 * _ratio(_self(solve, "lattice.membership"),
                                              _calls(solve, "lattice.membership")),
        "lattice.pullback_s": _self(solve, "lattice.pullback_grid_cover"),
        "lattice.zk_cover_s": _total(solve, "lattice.zk_cover"),
        "lattice.candidates_tried": _ratio(_calls(solve, "lattice.pullback_grid_cover"),
                                           _calls(solve, "lattice.zk_cover")),
        "covers.cover_stats_s": _total(solve, "covers.cover_stats"),
        "covers.lebesgue_s": _self(solve, "covers.certified_lebesgue",
                                   "covers.lebesgue_condition"),
        "covers.lebesgue_levels_scanned": _calls(solve, "covers.lebesgue_condition"),
        "covers.mesh_s": _self(solve, "covers.mesh"),
        "covers.mesh_inexact": _calls(solve, "covers.mesh_inexact"),
        "covers.multiplicity_s": _self(solve, "covers.multiplicity"),
        "covers.extend_by_cosets_s": _self(solve, "covers.extend_by_cosets"),
        "kernels.pou_build_s": _self(solve, "kernels.pou_kernel"),
        "kernels.boundary_distance_calls": _calls(solve, "kernels.boundary_distance"),
        "kernels.row_calls": _calls(solve, "kernels.Kernel.row"),
        "kernels.row_s": _self(solve, "kernels.Kernel.row"),
        "kernels.support_radius_s": _self(solve, "kernels.Kernel.support_radius"),
        "kernels.pairs_evaluated": pq[0],
        "kernels.pair_quotient_s": pq[2],
        "kernels.pair_quotients_per_s": _ratio(pq[0], pq[2]),
        "kernels.norm_error_s": _self(solve, "kernels.Kernel.norm_error"),
        "kernels.stats_s": _total(solve, "kernels.kernel_stats"),
        "embeddings.field_s": _total(solve, "embeddings.KernelField.__init__",
                                     "embeddings.build_embedding"),
        "embeddings.distance_calls": _calls(solve, "embeddings.CompressionEmbedding.distance"),
        "embeddings.distance_s": _self(solve, "embeddings.CompressionEmbedding.distance"),
        "embeddings.compression_report_s": _self(solve, "embeddings.compression_report"),
        "wreath.cover_s": _total(solve, "wreath.wreath_cover"),
        "wreath.compose_self_s": _self(solve, "wreath.wreath_cover", "wreath.block_cover"),
        "wreath.sets": expect.get("wreath.sets", 0),
    }


def self_check(phases, expect):
    """Checks that the tracer saw every call: ``[name, ok]`` pairs.

    Counts the workload knows from its own results must equal the
    counters, and every window point handed to a lattice pullback must
    have been decoded exactly once.  A call site the tracer did not rebind
    would leave a counter short.
    """
    solve = phases.get("solve", {})
    checks = []
    for name, record in (
            ("kernels.pairs_evaluated", "kernels.Kernel.pair_quotient"),
            ("embeddings.distance_calls", "embeddings.CompressionEmbedding.distance")):
        seen = _calls(solve, record)
        want = expect.get(name, 0)
        checks.append([f"trace {name} {seen} == workload {want}", seen == want])
    decoded = _calls(solve, "lattice.membership")
    handed = _calls(solve, "lattice.pullback_points")
    checks.append([f"trace membership calls {decoded} == pullback points {handed}",
                   decoded == handed])
    if "lattice.window_points" in expect:
        window = expect["lattice.window_points"]
        tries = _calls(solve, "lattice.pullback_grid_cover")
        checks.append([f"trace membership calls {decoded} == window {window} "
                       f"x candidates tried {tries}", decoded == window * tries])
    measured = _calls(solve, "covers.mesh")
    stats = _calls(solve, "covers.cover_stats")
    checks.append([f"trace mesh calls {measured} == cover_stats calls {stats}",
                   measured == stats])
    return checks
