import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_benchmark_tracer_binds_every_target():
    # install rebinds the package for the rest of its process, so it runs
    # in a child; a target the library no longer binds makes it raise
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = sys.argv[1:]; "
         "from tracer import Tracer; Tracer().install()",
         str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


SMOKE = """
import sys
sys.path[:0] = sys.argv[1:]
import workloads
for name, (setup, solve) in workloads.WORKLOADS.items():
    checks, _, _ = solve(setup(workloads.SIZES[name]["smoke"]), 0)
    failed = [check for check, ok in checks if not ok]
    if not checks or failed:
        sys.exit(f"{name}: {len(checks)} checks, failed {failed}")
"""


def test_benchmark_workloads_hold_every_check_at_smoke_size():
    # each workload's set-up and solve, with the calls and keywords the
    # benchmark makes, in a child so the library's caches start cold
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED = """
import sys
workload = sys.argv[1]
sys.path[:0] = sys.argv[2:]
from tracer import Tracer
import layers, workloads
tracer = Tracer()
tracer.install()
setup, solve = workloads.WORKLOADS[workload]
inputs = setup(workloads.SIZES[workload]["smoke"])
tracer.set_phase("solve")
checks, _, expect = solve(inputs, 0)
failed = [name for name, ok in [*checks, *layers.self_check(tracer.snapshot(), expect)]
          if not ok]
if failed:
    sys.exit(f"{workload}: failed {failed}")
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_solve_passes_the_self_check(workload):
    # the tracer installed before set-up, as a traced benchmark run does:
    # a call the tracer does not see, such as a memo kept outside a traced
    # method, leaves one of its counters short of the workload's count
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, workload, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
