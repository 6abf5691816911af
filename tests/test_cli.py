import dataclasses
import json
import math
from pathlib import Path

import pytest

from coarse_embed import experiments
from coarse_embed.cli import main
from coarse_embed.covers import cover_stats
from coarse_embed.kernels import kernel_stats
from coarse_embed.reports import read_csv_rows
from coarse_embed.wreath import wreath_cover

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(tmp_path, *argv):
    out = str(tmp_path / "report")
    code = main([*argv, "--out", out])
    return code, out


def test_malformed_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["cp-check", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert not (tmp_path / "r.csv").exists()    # no partial files


def test_missing_required_key_exits_two(tmp_path):
    code = main(["zk-cover", "--out", str(tmp_path / "r")])
    assert code == 2


# experiment, its required settings, one unknown key, one out-of-range value
BAD_CONFIGS = [
    ("zk-cover", "k=2 L=1", "half_widht=5", "strict=maybe"),
    ("voronoi-check", "n=2", "sample=10", "n=1"),
    ("cover-kernel", "", "half_widht=5", "cover=zk"),    # zk needs L
    ("tree-embed", "", "dept=6", "p_list=[0]"),
    ("lamplighter-metric", "", "raduis=3", "m_list=[0]"),
    ("lamplighter-cover", "", "L_list=[1]", "L=0"),
    ("profile", "", "grid_halfwidth=5", "wreath_L_list=[0]"),
    ("embed", "", "samples=30", "depth=0"),
    ("cp-check", "", "T=5", "subdivisions=0"),
]


def sets(settings):
    return [arg for item in settings.split() for arg in ("--set", item)]


@pytest.mark.parametrize("experiment,required,bad_key,bad_value", BAD_CONFIGS,
                         ids=[case[0] for case in BAD_CONFIGS])
def test_bad_key_and_bad_value_exit_two(tmp_path, experiment, required,
                                        bad_key, bad_value):
    for bad in (bad_key, bad_value):
        argv = [experiment, *sets(required), "--set", bad]
        assert main([*argv, "--out", str(tmp_path / "r")]) == 2, bad
        assert not list(tmp_path.iterdir())


def test_bug_in_a_construction_is_a_traceback(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "grid_space", None)    # a TypeError
    with pytest.raises(TypeError):
        main(["cover-kernel", "--out", str(tmp_path / "r")])


def test_cap_exceeded_exits_three(tmp_path, monkeypatch):
    monkeypatch.setenv("COARSE_EMBED_CAP", "10")
    code = main(["tree-embed", "--set", "depth=6", "--out", str(tmp_path / "r")])
    assert code == 3


def test_contract_failure_exits_one_with_witness(tmp_path):
    code, out = run(tmp_path, "zk-cover", "--set", "k=1", "--set", "L=2",
                    "--set", "half_width=20")
    assert code == 1
    rows = read_csv_rows(out + ".csv")
    assert any(r.get("check") == "FAILED" and r["witness"] for r in rows)


def wreath_detail(**entries):
    """wreath_cover with some entries of its detail (the bounds) replaced."""
    def fake(ball, L):
        cover, stats, detail = wreath_cover(ball, L)
        return cover, stats, {**detail, **entries}
    return fake


def broken(experiment, settings, target, fake, check=None):
    """A case for the test below: an experiment, small settings, and a
    construction replaced so that a check fails (named after the target,
    or after the check when one target breaks several)."""
    return pytest.param(experiment, settings, target, fake,
                        id=f"{experiment}-{check or target}")


BROKEN = [
    broken("voronoi-check", "n=2 samples=20", "cell_contains_bruteforce",
           lambda x, tau: None),
    broken("tree-embed", "depth=4 S_list=[2] p_list=[1]", "tent_norm_floor",
           lambda S, p: math.inf),
    broken("lamplighter-metric", "radius=1 block_radius=4 pairs=50",
           "lamp_coordinates", lambda label, m: (hash(label),)),
    broken("embed", "depth=8 S_levels=[2,4,8] sample_points=10", "kernel_stats",
           lambda kern, **kw: dataclasses.replace(kernel_stats(kern, **kw),
                                                  lipschitz=0.0)),
    broken("cp-check", "", "overlog_shape", lambda a, p: lambda t: t),
    broken("profile", "grid_S_list=[] tree_depth=2 tree_S_list=[] wreath_radius=1 "
           "wreath_L_list=[] mazur_pairs=1", "mazur_pairs_check",
           lambda *args, **kw: (3.0, 0)),
    # the witnesses the statistics keep: the norm-error point, the support
    # point, the multiplicity point, the mesh set and pair, and the point
    # that limits the Lebesgue level
    broken("cover-kernel", "half_width=10 p_list=[1]", "kernel_stats",
           lambda kern, **kw: dataclasses.replace(kernel_stats(kern, **kw),
                                                  norm_error=1.0)),
    broken("cover-kernel", "half_width=10 p_list=[1]", "cover_stats",
           lambda cover: dataclasses.replace(cover_stats(cover), mesh=0)),
    broken("lamplighter-cover", "radius=3", "wreath_cover",
           wreath_detail(multiplicity_bound=0), check="multiplicity"),
    broken("lamplighter-cover", "radius=3", "wreath_cover",
           wreath_detail(mesh_bound=0), check="mesh"),
    broken("lamplighter-cover", "radius=6 L=3", "wreath_cover",
           lambda ball, L: wreath_cover(ball, 1), check="level"),
]


@pytest.mark.parametrize("experiment,settings,target,fake", BROKEN)
def test_every_failed_check_names_a_witness(tmp_path, monkeypatch, experiment,
                                            settings, target, fake):
    monkeypatch.setattr(experiments, target, fake)
    code, out = run(tmp_path, experiment, *sets(settings))
    assert code == 1
    failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
    assert failed and all(r["witness"] not in ("", "None") for r in failed)


def test_cp_check_passes_and_reports(tmp_path):
    code, out = run(tmp_path, "cp-check")
    assert code == 0
    rows = read_csv_rows(out + ".csv")
    verdicts = {r["shape"]: r["verdict"] for r in rows if r.get("shape")}
    assert verdicts["identity"] == "diverging"
    assert all(v == "converging" for s, v in verdicts.items() if s != "identity")
    # per-truncation rows with non-decreasing partial integrals
    ident = [r for r in rows if r["shape"] == "identity"]
    assert len(ident) > 10
    partials = [r["partial_integral"] for r in ident]
    assert partials == sorted(partials)
    assert all(r["T"] > 0 for r in ident)


def test_embed_report_columns(tmp_path):
    code, out = run(tmp_path, "embed", "--set", "depth=8",
                    "--set", "S_levels=[2,4,8]", "--set", "sample_points=30")
    assert code == 0
    text = open(out + ".csv").read()
    assert text.splitlines()[0].startswith("d,rho_minus,rho_plus,floor_2f")


@pytest.mark.parametrize("levels", ["[4,2]", "[2,2]", "[8]", "[1,4]", "[2.5,4]"])
def test_bad_s_levels_exit_two(tmp_path, levels):
    out = tmp_path / "r"
    code = main(["embed", "--set", f"S_levels={levels}", "--out", str(out)])
    assert code == 2
    assert not (tmp_path / "r.csv").exists()


def test_deterministic_output_bytes(tmp_path):
    args = ["voronoi-check", "--set", "n=4", "--set", "samples=300", "--seed", "5"]
    code1, out1 = run(tmp_path / "a", *args)
    code2, out2 = run(tmp_path / "b", *args)
    assert code1 == code2 == 0
    assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()
    assert open(out1 + ".json", "rb").read() == open(out2 + ".json", "rb").read()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "samples": 100}))
    code, out = run(tmp_path, "voronoi-check", "--config", str(cfg),
                    "--set", "samples=50")
    assert code == 0
    meta = json.load(open(out + ".json"))["meta"]
    assert meta["config"]["samples"] == 50
    assert meta["config"]["n"] == 4


def test_csv_json_round_trip(tmp_path):
    code, out = run(tmp_path, "zk-cover", "--set", "k=2", "--set", "L=1",
                    "--set", "half_width=15")
    assert code == 0
    rows = read_csv_rows(out + ".csv")
    doc = json.load(open(out + ".json"))
    lead = rows[0]
    json_lead = doc["rows"][0]
    assert lead["lebesgue"] == json_lead["lebesgue"]
    assert lead["multiplicity"] == json_lead["multiplicity"]
    from fractions import Fraction
    assert isinstance(lead["scale"], Fraction)          # "num/den" rationals
    assert str(json_lead["scale"]).count("/") == 1


def test_zk_cover_row_names_box_family(tmp_path):
    code, out = run(tmp_path, "zk-cover", "--set", "k=2", "--set", "L=3",
                    "--set", "half_width=15")
    assert code == 0
    lead = read_csv_rows(out + ".csv")[0]
    assert (lead["side"], lead["growth"]) == (4, 2)
    assert "scale" not in lead and "thickening" not in lead
    assert (lead["lebesgue"], lead["multiplicity"], lead["mesh"]) == (3, 4, 10)


def test_rationals_render_as_num_den(tmp_path):
    code, out = run(tmp_path, "voronoi-check", "--set", "n=6",
                    "--set", "samples=50")
    assert code == 0
    text = open(out + ".csv").read()
    assert "1/5" in text        # separation target for n = 6


# each experiment at a small passing config; its CSV must not change
GOLDEN_CONFIGS = [
    ("zk-cover", "k=2 L=3 half_width=15"),
    ("voronoi-check", "n=4 samples=200"),
    ("cover-kernel", "cover=zk L=2 half_width=12"),
    ("tree-embed", "depth=5 S_list=[2,4] p_list=[1,2]"),
    ("lamplighter-metric", "radius=3 m_list=[2] block_radius=4 pairs=50"),
    ("lamplighter-cover", "radius=6"),
    ("profile", "grid_half_width=6 grid_S_list=[2,4] tree_depth=4 "
                "tree_S_list=[2,4] wreath_radius=3 mazur_pairs=100"),
    ("embed", "depth=8 S_levels=[2,4,8] sample_points=20"),
    ("cp-check", ""),
]


@pytest.mark.parametrize("experiment,settings", GOLDEN_CONFIGS,
                         ids=[case[0] for case in GOLDEN_CONFIGS])
def test_report_matches_golden(tmp_path, experiment, settings):
    code, out = run(tmp_path, experiment, *sets(settings))
    assert code == 0
    golden = (GOLDEN / f"{experiment}.csv").read_bytes()
    assert Path(out + ".csv").read_bytes() == golden
