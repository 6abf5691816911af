"""One repetition of one workload, in the fresh interpreter run.py starts.

Each repetition imports ``src/`` anew, so the library's module caches and
the per-kernel row caches start cold, as they do for a command-line user.
Prints one JSON line: the timings, the check outcome, the certificate and,
when traced, the tracer's records.  With ``--setup-only`` it stops after
building the windows and prints only the set-up times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PERIOD_S = 0.2
CHUNK_PAIRS = 250


class ReferenceClock:
    """Times a fixed chunk of pure-Python work every PERIOD_S seconds of
    the solve, from a timer signal, so the samples see the machine at the
    moments the solve does.

    The chunk uses no package code.  It does what the library's inner
    loops do: the l^2 difference of sparse float rows kept as dicts and
    the l1 difference of small integer tuples.  A slow phase of a shared
    machine stretches it as it stretches the solve, so solve_s over the
    median chunk time drifts less than solve_s alone.  The rows are small,
    to leave peak memory to the library.
    """

    def __init__(self):
        rng = random.Random(20061)
        self.rows = [{rng.randrange(2000): rng.random() for _ in range(60)}
                     for _ in range(400)]
        self.samples = []

    def chunk(self, *_signal_args):
        t0 = time.perf_counter()
        rows = self.rows
        acc = 0.0
        for k in range(CHUNK_PAIRS):
            a, b = rows[k * 7919 % 400], rows[(k * 104729 + 13) % 400]
            s = 0.0
            for key, va in a.items():
                d = va - b.get(key, 0.0)
                s += d * d
            for key, vb in b.items():
                if key not in a:
                    s += vb * vb
            acc += s ** 0.5
            p, q = (k % 97, k % 89, k % 83), (k % 7, -(k % 5), k % 3)
            acc += sum(abs(x - y) for x, y in zip(p, q))
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after setup and report only its times")
    args = ap.parse_args(argv)

    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(SRC))
    import coarse_embed

    if Path(coarse_embed.__file__).resolve().parent != SRC / "coarse_embed":
        raise SystemExit(f"imported coarse_embed from {coarse_embed.__file__}, "
                         f"not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    setup, solve = workloads.WORKLOADS[args.workload]
    inputs = setup(workloads.SIZES[args.workload][args.size])
    t1, c1 = time.perf_counter(), time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": t1 - t0, "setup_cpu_s": c1 - c0}))
        return
    if tracer is not None:
        tracer.set_phase("solve")
    clock = ReferenceClock()
    clock.chunk()
    # Traced repetitions leave the clock off: its chunks would land in
    # whichever span they interrupt.
    t2, c2 = time.perf_counter(), time.process_time()
    with clock if tracer is None else contextlib.nullcontext():
        checks, certificate, expect = solve(inputs, args.seed)
    t3, c3 = time.perf_counter(), time.process_time()
    in_clock = sum(clock.samples[1:])

    failed = sorted({name for name, ok in checks if not ok})
    out = {
        "setup_s": t1 - t0,
        "solve_s": t3 - t2 - in_clock,
        "setup_cpu_s": c1 - c0,
        "solve_cpu_s": c3 - c2 - in_clock,
        "ref_s": statistics.median(clock.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_run": len(checks),
        "checks_failed": sum(1 for _, ok in checks if not ok),
        "failed_names": failed,
        "certificate": certificate,
        "expect": expect,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
