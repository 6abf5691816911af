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
