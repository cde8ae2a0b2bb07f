"""One round of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1

Run by ``run.py`` once per round, so every round starts with cold caches the
way a command-line user does.  The inputs are made before the clock starts;
each operation is timed alone, then checked.  With ``--trace 1`` the package
is wrapped by ``tracer`` first and the round also reports per-layer figures
and its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def run_ops(ops) -> list[list]:
    """Time each operation alone, then check it: [name, seconds, reason, known_fault].

    ``reason`` is None for a right result.  An exception counts as a wrong
    result, so one bad operation does not end the round.
    """
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception:
            seconds = time.perf_counter() - start
            reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
        else:
            seconds = time.perf_counter() - start
            reason = op.check(output)
        results.append([op.name, seconds, reason, op.known_fault])
    return results


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import towergrowth

    if not Path(towergrowth.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported towergrowth from {towergrowth.__file__}, not from the checkout")

    import tracer
    import workloads

    program = workloads.Program()
    ops = workloads.build(args.workload, program, ROOT, args.seed)
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        tracer.install(trace)

    report = {
        "ops": run_ops(ops),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is not None:
        report["layers"] = tracer.layer_metrics(trace.spans, trace.coeff_bits)
        report["spans"] = [s.to_json() for s in trace.spans]
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
