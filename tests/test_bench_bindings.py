import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
