"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-7 and 9-12 run the command line's experiments with the configs
pinned here and assert every check they return (bounds and tolerances live
in the checks); criterion 8 has no experiment of its own and calls the
library directly.
"""

import time

from coarse_embed.experiments import (run_cover_kernel, run_cp_check,
                                      run_embed, run_lamplighter_cover,
                                      run_lamplighter_metric, run_profile,
                                      run_pullback_check, run_tree_embed,
                                      run_voronoi_check, run_zk_cover)
from coarse_embed.kernels import mazur_pairs_check


def certify(announce, number, budget, t0, results, detail, **extra):
    """Every check of every result and every named extra condition holds,
    within the time budget."""
    elapsed = time.time() - t0
    failed = [c for r in results for c in r.checks if not c.ok]
    failed += [name for name, ok in extra.items() if not ok]
    announce(number, not failed and elapsed < budget, elapsed, budget,
             detail + "".join(f"; failed {c}" for c in failed[:3]))
    assert not failed, failed
    assert elapsed < budget


def test_criterion_01_partition_of_unity_suite(announce):
    t0 = time.time()
    results = [run_cover_kernel(cfg) for cfg in (
        {"cover": "interval"}, {"cover": "balls"},
        {"cover": "zk", "L": 1}, {"cover": "zk", "L": 3})]
    checked = sum(len(r.rows) for r in results)
    certify(announce, 1, 120, t0, results, f"{checked} kernel checks")


def test_criterion_02_tree_tent_kernels(announce):
    t0 = time.time()
    result = run_tree_embed({})
    certify(announce, 2, 60, t0, [result], f"{len(result.rows)} tent kernels")


def test_criterion_03_voronoi_cover(announce):
    t0 = time.time()
    results = [run_voronoi_check({"n": n, "samples": 10_000, "seed": 0})
               for n in (2, 4, 6)]
    pairs = [r.rows[0]["translate_pairs"] for r in results]
    certify(announce, 3, 120, t0, results, "3 dimensions x 10000 samples",
            translate_pairs_over_50=min(pairs) > 50)


def test_criterion_04_plane_cover_type_bound(announce):
    t0 = time.time()
    results = [run_zk_cover({"k": 2, "L": L, "half_width": 40}) for L in (1, 3)]
    certify(announce, 4, 60, t0, results, "; ".join(
        f"L={row['L']}: lebesgue {row['lebesgue']}, mesh {row['mesh']}, "
        f"mult {row['multiplicity']}" for row in (r.rows[0] for r in results)))


def test_criterion_05_lamplighter_length_formula(announce):
    t0 = time.time()
    result = run_lamplighter_metric({"m_list": []})
    row = result.rows[0]
    certify(announce, 5, 120, t0, [result],
            f"{row['elements']} elements of the radius-{row['radius']} ball, "
            f"{row['formula_mismatches']} mismatches")


def test_criterion_06_block_coordinate_sandwich(announce):
    t0 = time.time()
    result = run_lamplighter_metric({"seed": 1})
    blocks = result.rows[1:]
    certify(announce, 6, 60, t0, [result],
            f"{sum(r['pairs'] for r in blocks)} pairs, "
            f"{sum(r['sandwich_violations'] for r in blocks)} sandwich violations")


def test_criterion_07_tree_embedding_floor(announce):
    t0 = time.time()
    result = run_embed({"seed": 3, "sample_points": 130})
    *envelope, last = result.rows
    certify(announce, 7, 120, t0, [result],
            f"{len(envelope)} distances, C={last['rho_minus']:.4f}, "
            f"Lipschitz estimate {last['rho_plus']:.4f}")


def test_criterion_08_mazur_contraction(announce):
    t0 = time.time()
    worst, draw = mazur_pairs_check(16, 2, 1, 10_000, seed=4)
    elapsed = time.time() - t0
    ok = worst <= 2.0 and elapsed < 30
    announce(8, ok, elapsed, 30,
             f"10000 unit pairs, worst ratio {worst:.4f} <= 2 at draw {draw}")
    assert worst <= 2.0
    assert elapsed < 30


def test_criterion_09_subspace_pullback(announce):
    t0 = time.time()
    result = run_pullback_check({"seed": 6})
    row = result.rows[0]
    rho = row["rho_f_at_support"]
    certify(announce, 9, 60, t0, [result],
            f"norm err {float(row['norm_error']):.1e}, contraction margin "
            f"{float(row['contraction_margin']):.1e}, rho_f(S(sigma))="
            f"{'unbacked' if rho is None else format(float(rho), '.3g')} "
            f"<= 3*{float(row['support_radius_xi']):.3g}")


def test_criterion_10_shape_integral_diagnostics(announce):
    t0 = time.time()
    result = run_cp_check({"c_overlog": 3.0})
    ident, over = [row for row in result.rows if "tail" in row]
    certify(announce, 10, 10, t0, [result],
            f"identity {ident['partial_integral']:.2f}, overlog "
            f"{over['partial_integral']:.5f} (tail {over['tail']:.1e}, "
            f"refinement change {over['relative_change']:.1e})",
            identity_above_10=ident["partial_integral"] > 10,
            tail_below_1e_3=over["tail"] < 1e-3)


def test_criterion_11_lamplighter_cover_contract(announce):
    t0 = time.time()
    result = run_lamplighter_cover({})
    row = result.rows[0]
    certify(announce, 11, 300, t0, [result],
            f"{row['elements']} elements, mult {row['multiplicity']}, "
            f"lebesgue {row['lebesgue']}, mesh <= {row['mesh_upper']} "
            f"(witnessed {row['mesh_witnessed']}, exact={row['mesh_exact']})")


def test_criterion_12_profile_shape_report(announce):
    t0 = time.time()
    result = run_profile({"grid_half_width": 15})
    spaces = {row["space"] for row in result.rows}
    fitted = [row["fitted_C"] for row in result.rows if row["space"] == "wreath"]
    certify(announce, 12, 120, t0, [result],
            f"{len(result.rows)} profile rows, fitted C={fitted[0]:.3f} "
            f"(non-assertive)",
            curves_for_all_three_spaces={"grid2", "tree", "wreath"} <= spaces)
