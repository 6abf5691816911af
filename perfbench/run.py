"""Benchmark runner for coarse-embed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size bench|smoke|full]

Run from the root of a source checkout; the package is imported from
``src/`` and need not be installed.  The runner starts one fresh
interpreter per repetition (rep.py), one at a time, until ``--seconds``
have passed and at least two repetitions are done, and reports medians.
An untraced run then starts a few set-up-only interpreters, so that the
set-up median rests on more samples.

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` traced and untraced repetitions alternate, at least
two traced and one untraced, and it carries the per-layer metrics, from
the traced ones, plus the tracing overhead.  The line before it holds the
details: per-repetition figures, the certificate, failed checks and the
machine.  GLOSSARY.md defines every metric.  Exit status: 0 with a
result, 1 when a repetition broke, 2 when the checkout has no
``src/coarse_embed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from layers import COUNTS, UNITS, layer_metrics, self_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("grid-kernel", "wreath-cover", "tree-embed")
REP_TIMEOUT_S = 170
# Set-up takes a tenth of a second, so its median needs more samples than
# the solves give.
SETUP_PROBES = 6


class RepFailed(RuntimeError):
    pass


def run_rep(args, traced, setup_only=False):
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--size", args.size, "--seed", str(args.seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # A fixed hash seed gives every repetition the same dict layouts.
        # Without bytecode files every repetition compiles src/ the same
        # way, and the benchmark writes nothing into the checkout.
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepFailed(proc.stderr.strip()[-4000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_steal_jiffies():
    """Steal time of all CPUs from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summarize(args, plain, traced, setups):
    """(metrics, run-level checks, detail) for the repetitions made."""
    checks = []
    reps = plain + traced
    first = reps[0]["certificate"]
    same = all(r["certificate"] == first for r in reps)
    checks.append(["certificate identical in every repetition", same])
    detail = {"certificate": first,
              "reps": [{k: r[k] for k in ("setup_s", "solve_s", "setup_cpu_s", "solve_cpu_s",
                                          "ref_s", "peak_rss_mb")}
                       | {"traced": r["trace"] is not None} for r in reps],
              "setup_probes_s": setups}
    if not args.trace:
        # solve_s goes to the details only: it drifts with the machine (see
        # GLOSSARY.md), and solve_ref carries the solve time as a gated metric.
        detail["solve_s"] = median([r["solve_s"] for r in plain])
        metrics = {
            "solve_ref": (median([r["solve_s"] / r["ref_s"] for r in plain]), "ratio"),
            "setup_s": (median([r["setup_s"] for r in plain] + setups), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
        }
        return metrics, checks, detail
    per_rep = [layer_metrics(r["trace"], r["expect"]) for r in traced]
    for r in traced:
        checks.extend(self_check(r["trace"], r["expect"]))
    for name in COUNTS:
        values = {m[name] for m in per_rep}
        checks.append([f"{name} repeats exactly: {sorted(values)}", len(values) == 1])
    metrics = {name: (median([m[name] for m in per_rep]), UNITS[name])
               for name in per_rep[0]}
    metrics["trace.overhead_s"] = (median([r["solve_s"] for r in traced])
                                   - median([r["solve_s"] for r in plain]), "s")
    detail["trace"] = traced[0]["trace"]
    return {name: metrics[name] for name in UNITS}, checks, detail


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke", "full"), default="bench")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coarse_embed" / "__init__.py").is_file():
        print(f"no src/coarse_embed under {ROOT}: run from a source checkout",
              file=sys.stderr)
        return 2

    steal0 = cpu_steal_jiffies()
    start = time.perf_counter()
    plain, traced = [], []
    min_plain, min_traced = (1, 2) if args.trace else (2, 0)
    try:
        while True:
            if args.trace and len(traced) <= len(plain):
                traced.append(run_rep(args, traced=True))
            else:
                plain.append(run_rep(args, traced=False))
            enough = len(plain) >= min_plain and len(traced) >= min_traced
            if enough and time.perf_counter() - start >= args.seconds:
                break
        setups = [run_rep(args, traced=False, setup_only=True)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
    except RepFailed as exc:
        print(f"{args.workload}: repetition failed:\n{exc}", file=sys.stderr)
        return 1
    steal1 = cpu_steal_jiffies()

    metrics, run_checks, detail = summarize(args, plain, traced, setups)
    reps = plain + traced
    attempted = sum(r["checks_run"] for r in reps) + len(run_checks)
    failed = sum(r["checks_failed"] for r in reps) + sum(1 for _, ok in run_checks if not ok)
    detail.update({
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "failed_checks": sorted({n for r in reps for n in r["failed_names"]}
                                | {n for n, ok in run_checks if not ok}),
        "machine": {"python": platform.python_version(),
                    "nproc": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(),
                    "steal_jiffies": (None if steal0 is None or steal1 is None
                                      else steal1 - steal0),
                    "wall_s": time.perf_counter() - start},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
