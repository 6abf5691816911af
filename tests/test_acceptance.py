"""Acceptance suite: one table entry per criterion, one runner for all.

Each entry runs a command-line experiment at the configs pinned for its
criterion.  `certify` asserts every check of the runs (bounds and
tolerances live in the checks), the entry's extra conditions on the rows
and its time budget, and prints one pass/fail line.  It also compares each
run with its goldens under tests/golden/criteria: NN-k.csv is the report
of criterion NN's k-th config as the command line writes its CSV, and
NN-k.checks.csv lists every check with its witness repr.  Running this file
as a script rewrites the goldens from the current code.
"""

import math
import time
from collections import namedtuple
from pathlib import Path

import pytest

from coarse_embed import experiments
from coarse_embed.cli import failed_rows
from coarse_embed.errors import ContractViolation
from coarse_embed.experiments import EXPERIMENTS
from coarse_embed.reports import rows_to_csv_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "criteria"

# detail(*runs) and each extra condition(*runs) read each config's rows
Criterion = namedtuple("Criterion", "number name experiment configs budget "
                                    "detail extra", defaults=({},))


def pullback_detail(rows):
    row = rows[0]
    rho = row["rho_f_at_support"]
    return (f"norm err {float(row['norm_error']):.1e}, contraction margin "
            f"{float(row['contraction_margin']):.1e}, rho_f(S(sigma))="
            f"{'unbacked' if rho is None else format(float(rho), '.3g')} "
            f"<= 3*{float(row['support_radius_xi']):.3g}")


def shape_summaries(rows):
    """cp-check's summary rows: the identity's, then the overlog shape's."""
    return [row for row in rows if "tail" in row]


CRITERIA = [
    Criterion(1, "partition_of_unity_suite", "cover-kernel",
              [{"cover": "interval"}, {"cover": "balls"},
               {"cover": "zk", "L": 1}, {"cover": "zk", "L": 3}], 120,
              lambda *runs: f"{sum(map(len, runs))} kernel checks"),
    Criterion(2, "tree_tent_kernels", "tree-embed", [{}], 60,
              lambda rows: f"{len(rows)} tent kernels"),
    Criterion(3, "voronoi_cover", "voronoi-check",
              [{"n": n, "samples": 10_000, "seed": 0} for n in (2, 4, 6)], 120,
              lambda *runs: f"{len(runs)} dimensions x "
                            f"{runs[0][0]['samples']} samples",
              {"translate_pairs_over_50": lambda *runs: min(
                  rows[0]["translate_pairs"] for rows in runs) > 50}),
    Criterion(4, "plane_cover_type_bound", "zk-cover",
              [{"k": 2, "L": L, "half_width": 40} for L in (1, 3)], 60,
              lambda *runs: "; ".join(
                  "L={L}: lebesgue {lebesgue}, mesh {mesh}, "
                  "mult {multiplicity}".format(**rows[0]) for rows in runs)),
    Criterion(5, "lamplighter_length_formula", "lamplighter-metric",
              [{"m_list": []}], 120,
              lambda rows: "{elements} elements of the radius-{radius} ball, "
                           "{formula_mismatches} mismatches".format(**rows[0])),
    Criterion(6, "block_coordinate_sandwich", "lamplighter-metric",
              [{"seed": 1}], 60,
              lambda rows: f"{sum(r['pairs'] for r in rows[1:])} pairs, "
                           f"{sum(r['sandwich_violations'] for r in rows[1:])} "
                           f"sandwich violations"),
    Criterion(7, "tree_embedding_floor", "embed",
              [{"seed": 3, "sample_points": 130}], 120,
              lambda rows: "{} distances, C={rho_minus:.4f}, Lipschitz estimate "
                           "{rho_plus:.4f}".format(len(rows) - 1, **rows[-1])),
    Criterion(8, "mazur_contraction", "mazur", [{"seed": 4}], 30,
              lambda rows: "{pairs} unit pairs, worst ratio {worst_ratio:.4f} "
                           "<= {bound:g} at draw {draw}".format(**rows[0])),
    Criterion(9, "subspace_pullback", "pullback-check", [{"seed": 6}], 60,
              pullback_detail),
    Criterion(10, "shape_integral_diagnostics", "cp-check",
              [{"c_overlog": 3.0}], 10,
              lambda rows: "identity {0[partial_integral]:.2f}, overlog "
                           "{1[partial_integral]:.5f} (tail {1[tail]:.1e}, "
                           "refinement change {1[relative_change]:.1e})"
                           .format(*shape_summaries(rows)),
              {"identity_above_10": lambda rows:
                  shape_summaries(rows)[0]["partial_integral"] > 10,
               "tail_below_1e_3": lambda rows:
                  shape_summaries(rows)[1]["tail"] < 1e-3}),
    Criterion(11, "lamplighter_cover_contract", "lamplighter-cover", [{}], 300,
              lambda rows: "{elements} elements, mult {multiplicity}, lebesgue "
                           "{lebesgue}, mesh <= {mesh_upper} (witnessed "
                           "{mesh_witnessed}, exact={mesh_exact})"
                           .format(**rows[0])),
    Criterion(12, "profile_shape_report", "profile",
              [{"grid_half_width": 15}], 120,
              lambda rows: "{} profile rows, fitted C={fitted_C:.3f} "
                           "(non-assertive)".format(len(rows), **next(
                               (r for r in rows if r["space"] == "wreath"),
                               {"fitted_C": math.nan}))),
]


def goldens(entry, results):
    """(file name, text) of each run's two goldens: its report as the
    command line writes the CSV, and its checks."""
    for k, result in enumerate(results, 1):
        base = f"{entry.number:02d}-{k}"
        yield f"{base}.csv", rows_to_csv_text(result.rows + failed_rows(result.checks))
        yield f"{base}.checks.csv", rows_to_csv_text(
            [{**c._asdict(), "witness": repr(c.witness)} for c in result.checks])


def certify(entry, announce):
    """Every check of every run and every extra condition holds, within
    the entry's time budget, and every run reproduces its goldens."""
    t0 = time.time()
    results = [EXPERIMENTS[entry.experiment](cfg) for cfg in entry.configs]
    elapsed = time.time() - t0
    runs = [result.rows for result in results]
    detail, failed = "no rows", [c for r in results for c in r.checks if not c.ok]
    if all(runs):       # a contract the construction raised leaves none
        detail = entry.detail(*runs)
        failed += [name for name, holds in entry.extra.items() if not holds(*runs)]
    failed += [f"golden {name}" for name, text in goldens(entry, results)
               if (GOLDEN / name).read_bytes() != text.encode()]
    announce(entry.number, not failed and elapsed < entry.budget, elapsed,
             entry.budget, detail + "".join(f"; failed {c}" for c in failed[:3]))
    assert not failed, failed
    assert elapsed < entry.budget


# one test per entry, named test_criterion_NN_<name>; entry is bound as a
# default, which pytest does not take for a fixture
for _entry in CRITERIA:
    globals()[f"test_criterion_{_entry.number:02d}_{_entry.name}"] = (
        lambda announce, entry=_entry: certify(entry, announce))


@pytest.mark.parametrize("broken,shown", [
    ("check", "; failed Check(name='identity verdict'"),
    ("contract", "no rows; failed Check(name='identity verdict'"),
    ("extra condition", "; failed tail_below_1e_3")])
def test_a_failure_fails_its_criterion(monkeypatch, broken, shown):
    entry, run = CRITERIA[9], EXPERIMENTS["cp-check"]   # the quickest

    def failing(cfg):
        result = run(cfg)
        check = [result.checks[0]._replace(ok=False)]
        tails = [{**row, "tail": 1.0} if "tail" in row else row
                 for row in result.rows]
        return result._replace(**{"check": {"checks": check},
                                  "contract": {"rows": [], "checks": check},
                                  "extra condition": {"rows": tails}}[broken])

    monkeypatch.setitem(EXPERIMENTS, "cp-check", failing)
    lines = []
    with pytest.raises(AssertionError):
        certify(entry, lambda *line: lines.append(line))
    [(number, ok, _, _, detail)] = lines
    assert (number, ok) == (10, False) and shown in detail


def test_a_dropped_wreath_curve_fails_criterion_12(monkeypatch):
    # profile checks every curve itself: a wreath cover that raises is a
    # failed check, and the detail line reads no wreath row
    def raising(ball, L):
        raise ContractViolation("no cover", witness=L)

    monkeypatch.setattr(experiments, "wreath_cover", raising)
    lines = []
    with pytest.raises(AssertionError):
        certify(CRITERIA[11], lambda *line: lines.append(line))
    [(number, ok, _, _, detail)] = lines
    assert (number, ok) == (12, False)
    assert "fitted C=nan" in detail and "failed Check(name='wreath L=1 cover'" in detail


def test_a_moved_last_digit_fails_its_criterion(monkeypatch):
    # the first row's integral, its 12th printed digit moved by one
    entry, run = CRITERIA[9], EXPERIMENTS["cp-check"]

    def moved(cfg):
        result = run(cfg)
        first, *rest = result.rows
        text = f"{first['partial_integral']:.12g}"
        digit = str((int(text[-1]) + 1) % 10)
        return result._replace(rows=[
            {**first, "partial_integral": float(text[:-1] + digit)}, *rest])

    monkeypatch.setitem(EXPERIMENTS, "cp-check", moved)
    lines = []
    with pytest.raises(AssertionError):
        certify(entry, lambda *line: lines.append(line))
    [(number, ok, _, _, detail)] = lines
    assert (number, ok) == (10, False)
    assert detail.endswith("; failed golden 10-1.csv")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for _entry in CRITERIA:
        _results = [EXPERIMENTS[_entry.experiment](cfg) for cfg in _entry.configs]
        for _name, _text in goldens(_entry, _results):
            (GOLDEN / _name).write_bytes(_text.encode())
