"""The benchmark's own tests, on the smoke-size windows (about a minute).

    python3 -m pytest -q perfbench/selftest.py

They run every workload end to end and traced, then show that the
correctness gate and the tracer self-check each fail when they should.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--size", "smoke", "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_names_every_runner_metric():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    detail, result = bench(workload, trace=0, seed=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failed_checks"]
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_its_self_check(workload):
    detail, result = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0, detail["failed_checks"]
    assert list(result["metrics"]) == list(layers.UNITS)
    assert sum(1 for r in detail["reps"] if r["traced"]) >= 2


def _solve_smoke(workload, after_install=None):
    """Set up and solve one smoke workload in this process, traced."""
    from tracer import Tracer

    import workloads

    tracer = Tracer()
    tracer.install()
    if after_install is not None:
        after_install()
    setup, solve = workloads.WORKLOADS[workload]
    inputs = setup(workloads.SIZES[workload]["smoke"])
    tracer.set_phase("solve")
    checks, _, expect = solve(inputs, 0)
    return checks, layers.self_check(tracer.snapshot(), expect)


def test_gate_fails_on_a_wrong_bound(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.kernels, "pou_lipschitz_bound", lambda *a, **k: 0.0)
    setup, solve = workloads.WORKLOADS["grid-kernel"]
    checks, _, _ = solve(setup(workloads.SIZES["grid-kernel"]["smoke"]), 0)
    failed = {name for name, ok in checks if not ok}
    assert failed and all("lipschitz<=bound" in name for name in failed)


def test_self_check_fails_on_a_missed_call_site(monkeypatch):
    from coarse_embed import kernels

    original = kernels.Kernel.pair_quotient
    # A site the tracer does not reach: put the bare method back afterwards.
    checks, tracer_checks = _solve_smoke(
        "tree-embed",
        lambda: monkeypatch.setattr(kernels.Kernel, "pair_quotient", original))
    assert all(ok for _, ok in checks)
    failed = [name for name, ok in tracer_checks if not ok]
    assert len(failed) == 1 and "kernels.pairs_evaluated" in failed[0]


def test_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", ROOT / "no-such-checkout")
    assert run.main(["--workload", "tree-embed", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
