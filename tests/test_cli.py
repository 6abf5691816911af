import csv
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarse_embed import experiments
from coarse_embed.cli import main
from coarse_embed.covers import cover_stats
from coarse_embed.kernels import Kernel, kernel_stats, pullback_kernel
from coarse_embed.wreath import wreath_cover

GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_value(text):
    if isinstance(text, str) and "/" in text:
        num, den = text.split("/")
        try:
            return Fraction(int(num), int(den))
        except ValueError:
            return text
    try:
        return int(text)
    except (TypeError, ValueError):
        pass
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def read_csv_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        return [dict(zip(columns, (parse_value(v) for v in row))) for row in reader]


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


# a profile config that passes in well under a second
PROFILE_SMALL = "grid_half_width=3 tree_depth=3 wreath_radius=2 mazur_pairs=10"

# experiment, its required settings, one unknown key, one out-of-range value
BAD_CONFIGS = [
    ("zk-cover", "k=2 L=1", "half_widht=5", "half_width=0"),
    # a box whose centre's radius is below L - 1 holds no point the level-L
    # condition constrains
    ("zk-cover", "k=2 L=9", "strict=false", "half_width=3"),
    # on Z the centre's open L-ball lies in one set: mesh >= 2L - 2 > L from L = 3
    ("zk-cover", "k=1 half_width=20", "half_widht=5", "L=3"),
    ("voronoi-check", "n=2", "sample=10", "n=1"),
    ("voronoi-check", "n=2", "boxes=2", "n=14"),        # past the cell oracle's n <= 12
    ("cover-kernel", "", "half_widht=5", "cover=zk"),    # zk needs L
    # a pou weight up to half_width + 1 = 6: 6^1000 is past the float range
    ("cover-kernel", "cover=balls half_width=5", "half_widht=5", "p_list=[1000]"),
    ("tree-embed", "", "dept=6", "p_list=[0]"),
    ("tree-embed", "depth=5 S_list=[2,4]", "dept=6", "p_list=[397]"),   # (4 + 2)^397
    ("lamplighter-metric", "", "raduis=3", "m_list=[0]"),
    # the radius-0 block is the identity alone: every sampled pair is (e, e)
    ("lamplighter-metric", "", "raduis=3", "block_radius=0"),
    ("lamplighter-cover", "", "L_list=[1]", "L=0"),
    ("lamplighter-cover", "L=3", "L_list=[1]", "radius=1"),   # the same for a ball
    ("profile", "", "grid_halfwidth=5", "wreath_L_list=[0]"),
    ("profile", "", "wreath_pairs=3000", "mazur_dim=0"),   # no kernel samples
    # S = 4 past the depth-1 tree's longest ray, 3
    ("profile", "grid_half_width=1 wreath_radius=1", "grid_halfwidth=5", "tree_depth=1"),
    # a curve with no S, no wreath level, and a tree S with no kernel
    ("profile", PROFILE_SMALL, "grid_halfwidth=5", "grid_S_list=[]"),
    ("profile", PROFILE_SMALL, "grid_halfwidth=5", "grid_S_list=[-1,2]"),  # no radius < 0
    ("profile", PROFILE_SMALL, "grid_halfwidth=5", "tree_S_list=[]"),
    ("profile", PROFILE_SMALL, "grid_halfwidth=5", "wreath_L_list=[]"),
    ("profile", PROFILE_SMALL, "grid_halfwidth=5", "tree_S_list=[0.5,2]"),
    ("profile", PROFILE_SMALL + " tree_S_list=[2,4]", "grid_halfwidth=5", "p=400"),
    ("embed", "", "samples=30", "depth=0"),
    ("embed", "", "samples=30", "sample_points=1"),     # no pair to measure
    # the weight u(S) = S / log S at a = 1, p = 2 is flat from 2 to 4 (the
    # one level weighs 0) and falls from 2 to 3
    ("embed", "depth=1", "samples=30", "S_levels=[2,4]"),
    ("embed", "depth=2", "samples=30", "S_levels=[2,3,4]"),
    # past the float range: the tent's top 8^397, and u(8)^2 = 64 (log 8)^9999
    ("embed", "depth=4 S_levels=[2,4,8]", "samples=30", "p=397"),
    ("embed", "depth=4 S_levels=[2,4,8]", "samples=30", "a=-10000"),
    ("cp-check", "", "T=5", "subdivisions=0"),
    ("cp-check", "", "T=5", "p=20"),        # t^p past the float range
    ("cp-check", "", "T=5", "a=-1000"),     # u(t)^p = t^p (log t)^999 past it
    ("pullback-check", "", "half_width=3", "seed=1.5"),   # sizes are constants
    ("mazur", "", "mazur_pairs=100", "seed=1.5"),          # sizes are constants
]


def case_ids(cases):
    """Each case's experiment, with the bad value added when the experiment
    already has a case."""
    seen, ids = set(), []
    for experiment, _, _, bad_value in cases:
        ids.append(f"{experiment}-{bad_value}" if experiment in seen else experiment)
        seen.add(experiment)
    return ids


def sets(settings):
    return [arg for item in settings.split() for arg in ("--set", item)]


@pytest.mark.parametrize("experiment,required,bad_key,bad_value", BAD_CONFIGS,
                         ids=case_ids(BAD_CONFIGS))
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


@pytest.mark.parametrize("settings", ["n=12 samples=1", "n=2 box=10000000 samples=1"],
                         ids=["pairs", "translates"])
def test_voronoi_translate_scan_past_the_cap_exits_three(tmp_path, settings):
    # n=12 at box 1 keeps 73,789 translates, 2,722,371,366 pairs; the huge
    # box is refused before its translates are enumerated
    code = main(["voronoi-check", *sets(settings), "--out", str(tmp_path / "r")])
    assert code == 3
    assert not list(tmp_path.iterdir())


def test_cap_message_names_what_it_counted(tmp_path, capsys):
    code = main(["voronoi-check", *sets("n=12 samples=1"), "--out", str(tmp_path / "r")])
    assert code == 3
    err = capsys.readouterr().err
    assert "translate pairs (n=12, box=1): 2722371366 exceeds cap" in err
    assert "points" not in err


def test_kernel_rows_past_the_cap_exit_three(tmp_path, monkeypatch, capsys):
    # 6,561 points, far under the default cap, but the pou rows of the 81
    # lattice sets hold up to 35,707,873 entries: refused before any row
    # is built, where measuring them took minutes
    monkeypatch.delenv("COARSE_EMBED_CAP", raising=False)
    start = time.perf_counter()
    code = main(["cover-kernel", *sets("cover=zk k=4 half_width=4 L=3 p_list=[2.0]"),
                 "--out", str(tmp_path / "r")])
    assert code == 3
    assert time.perf_counter() - start < 30
    assert "p=2.0) row entries: 35707873 exceeds cap 2000000" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def broken(experiment, settings, target, fake, check=None, **sizes):
    """A case for the test below: an experiment, small settings (or module
    constants shrunk through sizes), and a construction replaced so that a
    check fails (named after the target, or after the check when one
    target breaks several)."""
    return pytest.param(experiment, settings, target, fake, sizes,
                        id=f"{experiment}-{check or target}")


def halved(f, domain, kernel):
    """The pulled-back kernel with every row at half its mass."""
    sigma = pullback_kernel(f, domain, kernel)
    return Kernel(domain, 1, lambda i: {j: v / 2 for j, v in sigma.row(i).items()})


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
    broken("profile", PROFILE_SMALL + " grid_S_list=[2] tree_S_list=[2]",
           "mazur_pairs_check", lambda *args, **kw: (3.0, 0)),
    broken("mazur", "", "mazur_pairs_check", lambda *args, **kw: (3.0, 0)),
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
    # rows off their source mass, a pair whose difference grows (point
    # rows), and no pair to back rho_minus at the support radius
    broken("pullback-check", "", "pullback_kernel", halved, check="norm",
           PULLBACK_HALF_WIDTH=3),
    broken("pullback-check", "", "pullback_kernel",
           lambda f, domain, kernel: Kernel(domain, 1, lambda i: {i: Fraction(1)}),
           check="contraction", PULLBACK_HALF_WIDTH=3),
    broken("pullback-check", "", "PULLBACK_PAIR_DRAWS", 0, check="support",
           PULLBACK_HALF_WIDTH=3),
]


@pytest.mark.parametrize("experiment,settings,target,fake,sizes", BROKEN)
def test_every_failed_check_names_a_witness(tmp_path, monkeypatch, experiment,
                                            settings, target, fake, sizes):
    for name, value in {target: fake, **sizes}.items():
        monkeypatch.setattr(experiments, name, value)
    code, out = run(tmp_path, experiment, *sets(settings))
    assert code == 1
    failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
    assert failed and all(r["witness"] not in ("", "None") for r in failed)


def test_mazur_row_without_a_counted_pair_fails_with_its_config(tmp_path):
    # in R^1 the two unit vectors of seed 1's one draw are equal
    code, out = run(tmp_path, "profile", *sets(PROFILE_SMALL + " grid_S_list=[2] "
                    "tree_S_list=[2] mazur_dim=1 mazur_pairs=1"), "--seed", "1")
    assert code == 1
    failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
    assert [(r["detail"], r["witness"]) for r in failed] == [
        ("mazur ratio q/p: 0.0 (bound 2.0)",
         "'no pair counted: dim 1, pairs 1, seed 1'")]


def test_largest_admitted_p_runs_the_cp_check(tmp_path):
    # the overlog sums raise t to the p-th power just below the grid's top,
    # T_overlog 2^(1/subdivisions); the rule admits p up to the float range
    log_top = math.log(math.e ** 45) + math.log(2) / 64
    p = math.log(sys.float_info.max) / log_top
    assert run(tmp_path, "cp-check", "--set", f"p={p * (1 + 1e-12)!r}")[0] == 2
    code, _ = run(tmp_path, "cp-check", "--set", f"p={p * (1 - 1e-12)!r}")
    assert code in (0, 1)


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


def test_embed_without_a_distinct_pair_fails_with_a_witness(tmp_path):
    # the depth-1 tree's domain is (), (0,) and (1,); seed 0 draws (0,) twice
    code, out = run(tmp_path, "embed", *sets("depth=1 S_levels=[2,8] sample_points=2"),
                    "--seed", "0")
    assert code == 1
    failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
    assert [(r["detail"], r["witness"]) for r in failed] == [
        ("distinct sampled pairs: 0 (bound 1)", "(0,)")]


def test_block_without_a_distinct_pair_fails_with_its_config(tmp_path):
    # the radius-1 block at m = 2 is e, a and a^-1; seed 0's one draw is one twice
    code, out = run(tmp_path, "lamplighter-metric",
                    *sets("radius=1 m_list=[2] block_radius=1 pairs=1"), "--seed", "0")
    assert code == 1
    failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
    assert [(r["detail"], r["witness"]) for r in failed] == [
        ("m=2 distinct sampled pairs: 0 (bound 1)",
         "'no pair a != b: m 2, block_radius 1, pairs 1, seed 0'")]


@pytest.mark.parametrize("settings,cover,config", [
    ("cover=balls half_width=1", "balls r=2",
     "cover balls, p_list [1, 2, 3], half_width 1, r 2, k 2, L None, seed 0"),
    ("cover=zk k=2 L=2 half_width=1", "lattice cover scale=2",
     "cover zk, p_list [1, 2, 3], half_width 1, r 2, k 2, L 2, seed 0"),
    ("cover=interval half_width=1", "intervals len=3 step=2",
     "cover interval, p_list [1, 2, 3], half_width 1, r 2, k 2, L None, seed 0"),
], ids=["balls", "zk", "interval"])
def test_kernel_without_a_pair_fails_with_its_config(tmp_path, settings, cover, config):
    # Lebesgue level 2 leaves the centre of the half-width-1 box the one
    # eligible point, so the Lipschitz check has no pair to measure
    code, out = run(tmp_path, "cover-kernel", *sets(settings))
    assert code == 1
    rows = read_csv_rows(out + ".csv")
    assert [r["ok"] for r in rows if r.get("check") != "FAILED"] == ["false"] * 3
    failed = [r for r in rows if r.get("check") == "FAILED"]
    assert [(r["detail"], r["witness"]) for r in failed] == [
        (f"{cover} p={p} pairs measured: 0 (bound 1)", f"'no pair measured: {config}'")
        for p in (1, 2, 3)]


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
    # "num/den" rationals; an integral one prints as an integer
    assert isinstance(lead["thickening"], Fraction)
    assert str(json_lead["thickening"]).count("/") == 1
    assert lead["scale"] == 1 and json_lead["scale"] == "1"


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
    ("pullback-check", ""),
    ("mazur", ""),
]


@pytest.mark.parametrize("experiment,settings", GOLDEN_CONFIGS,
                         ids=[case[0] for case in GOLDEN_CONFIGS])
def test_report_matches_golden(tmp_path, experiment, settings):
    code, out = run(tmp_path, experiment, *sets(settings))
    assert code == 0
    golden = (GOLDEN / f"{experiment}.csv").read_bytes()
    assert Path(out + ".csv").read_bytes() == golden


def bound_cases():
    """Each experiment's golden config with one key at its declared lower
    bound; a list takes max(min_len, 1) copies of it."""
    for experiment, settings in GOLDEN_CONFIGS:
        for key, param in experiments.EXPERIMENTS[experiment].params.items():
            if param.lo is not None:
                value = (param.lo if param.min_len is None
                         else [param.lo] * max(param.min_len, 1))
                yield pytest.param(experiment, settings, f"{key}={json.dumps(value)}",
                                   id=f"{experiment}-{key}")


@pytest.mark.parametrize("experiment,settings,at_bound", list(bound_cases()))
def test_every_key_at_its_lower_bound_exits_cleanly(tmp_path, monkeypatch, experiment,
                                                   settings, at_bound):
    # a traceback fails the test; so does a FAILED row without a witness
    monkeypatch.setenv("COARSE_EMBED_CAP", "20000")
    code, out = run(tmp_path, experiment, *sets(settings), "--set", at_bound)
    assert code in (0, 1, 2, 3)
    if code == 1:
        failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
        assert failed and all(r["witness"] not in ("", "None") for r in failed)


def declared_values(param):
    """Small values a parameter's declaration admits: one of a choice's
    options; an integer from lo (0 without one) up to 3 more; a number
    from lo (-2 without one) up to 4 or 1000 more; a list of such items,
    at least min_len of them, sorted and distinct where it must increase."""
    if param.what.startswith("one of "):
        return st.sampled_from(param.what[len("one of "):].split(", "))
    if "an integer" in param.what:
        lo = 0 if param.lo is None else param.lo
        item = st.integers(lo, lo + 3)
    else:
        lo = -2 if param.lo is None else param.lo
        item = (st.floats(lo, lo + 4) | st.floats(lo, lo + 1000)).map(lambda v: round(v, 2))
    if param.min_len is None:
        return item
    if "increasing" in param.what:
        return st.lists(item, min_size=param.min_len, max_size=param.min_len + 3,
                        unique=True).map(sorted)
    return st.lists(item, min_size=param.min_len, max_size=param.min_len + 3)


@settings(max_examples=6, deadline=None, derandomize=True)
@seed(20261020)
@given(data=st.data())
@pytest.mark.parametrize("experiment,golden", GOLDEN_CONFIGS,
                         ids=[case[0] for case in GOLDEN_CONFIGS])
def test_declared_configs_exit_cleanly(tmp_path_factory, experiment, golden, data):
    # the golden config with some keys drawn anew from their declarations;
    # a traceback fails the test, and so does a FAILED row without a witness
    params = experiments.EXPERIMENTS[experiment].params
    keys = data.draw(st.lists(st.sampled_from(sorted(params)), unique=True))
    items = [golden]
    for key in keys:
        value = data.draw(declared_values(params[key]), label=key)
        items.append(f"{key}={json.dumps(value, separators=(',', ':'))}")
    out = str(tmp_path_factory.mktemp("declared") / "report")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COARSE_EMBED_CAP", "2000")
        code = main([experiment, *sets(" ".join(items)), "--out", out])
    assert code in (0, 1, 2, 3)
    if code == 1:
        failed = [r for r in read_csv_rows(out + ".csv") if r.get("check") == "FAILED"]
        assert failed and all(r["witness"] not in ("", "None") for r in failed)
