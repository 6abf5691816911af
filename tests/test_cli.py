import json

import pytest

from coarse_embed.cli import main
from coarse_embed.reports import read_csv_rows


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


def test_cap_exceeded_exits_three(tmp_path, monkeypatch):
    monkeypatch.setenv("COARSE_EMBED_CAP", "10")
    code = main(["tree-embed", "--set", "depth=6", "--out", str(tmp_path / "r")])
    assert code == 3


def test_contract_failure_exits_one_with_witness(tmp_path):
    code, out = run(tmp_path, "zk-cover", "--set", "k=1", "--set", "L=2",
                    "--set", "half_width=20")
    assert code == 1
    rows = read_csv_rows(out + ".csv")
    assert any(r.get("check") == "FAILED" for r in rows)


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


def test_profile_emits_three_space_curves(tmp_path):
    code, out = run(tmp_path, "profile", "--set", "grid_half_width=10",
                    "--set", "tree_depth=7", "--set", "wreath_radius=4",
                    "--set", "mazur_pairs=300", "--set", "wreath_pairs=500")
    assert code == 0
    rows = read_csv_rows(out + ".csv")
    spaces = {r["space"] for r in rows}
    assert {"grid2", "tree", "wreath"} <= spaces


def test_rationals_render_as_num_den(tmp_path):
    code, out = run(tmp_path, "voronoi-check", "--set", "n=6",
                    "--set", "samples=50")
    assert code == 0
    text = open(out + ".csv").read()
    assert "1/5" in text        # separation target for n = 6
