"""groupoidlab benchmark: one command for every workload.

    python3 bench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Workloads: battery, principality-deep, ktheory (see bench/README.md).
The run first self-tests its checkers, then repeats whole passes of the
workload until the next pass would end past ``--seconds`` (at least two
passes, so that battery reports can be compared byte for byte).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes with every public function of the
package wrapped, and prints the per-layer metrics per traced pass plus
the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Exit status is 0 when a
result is printed, 2 when the package cannot be found, 3 when a checker
fails its self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import checks
from speed import Clock
from tracing import Tracer
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_PASSES = 2


def measure_setup(workload, clock: Clock) -> float:
    """Median over fresh processes, after one warm-up that fills the
    bytecode cache; each probe is scaled by the reference timings on
    either side of it."""
    cmd = [sys.executable, os.path.join(BENCH, "probe.py"), SRC, workload.name, *workload.setup_paths]
    times = []
    before = clock.mark()
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        after = clock.mark()
        if i:
            raw = float(out.stdout.strip().splitlines()[-1])
            times.append(clock.scaled(raw, before, after))
        before = after
    return statistics.median(times)


def run_passes(workload, seconds: float, min_passes: int, clock: Clock) -> list:
    """Whole passes until the next one would end past ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        clock.mark()
        passes.append(workload.run_pass(clock))
        spent = time.perf_counter() - start
        if len(passes) >= min_passes and spent + spent / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groupoidlab", "__init__.py")):
        sys.stderr.write(f"error: no groupoidlab package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import groupoidlab

    if not os.path.abspath(groupoidlab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported groupoidlab from {groupoidlab.__file__}, not {SRC}\n")
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    problems = checks.self_test()
    if problems:
        sys.stderr.write("".join(f"checker self-test failed: {p}\n" for p in problems))
        return 3

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
        workload = WORKLOADS[args.workload](args.seed, work)
        clock = Clock()
        setup_s = measure_setup(workload, clock) if not args.trace else None
        workload.prepare()
        if not args.trace:
            passes = run_passes(workload, args.seconds, MIN_PASSES, clock)
            traced = []
        else:
            passes = run_passes(workload, 0, 1, clock)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds - passes[0].raw, 1, clock)
            finally:
                tracer.uninstall()

    every = passes + traced
    errors = [e for p in every for e in p.errors]
    for line in sorted(set(errors))[:20] + sorted({n for p in every for n in p.notes})[:20]:
        sys.stderr.write(line + "\n")
    for i, p in enumerate(every):
        figures = " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in p.figures.items())
        kind = "traced" if i >= len(passes) else "pass"
        print(f"{kind} {i + 1}: wall {p.raw:.3f} s, scaled {p.scaled:.3f} s, slowest call {p.slowest:.3f} s, {figures}")

    print(f"reference job: median {statistics.median(clock.marks):.4f} s, "
          f"range {min(clock.marks):.4f}-{max(clock.marks):.4f} s over {len(clock.marks)} marks")
    if not args.trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(p.scaled for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics(len(traced))
        overhead = statistics.median(p.scaled for p in traced) - passes[0].scaled
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(p.attempted for p in every),
                "failed": sum(p.failed for p in every),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
