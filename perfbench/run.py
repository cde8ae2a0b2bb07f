"""Benchmark of towergrowth: four checked workloads and a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coupled-ladder --seed 1 --seconds 30 --trace 0

Workloads: coupled-ladder, free-ladder, k-sweep, descent-fit (README.md says
what each one stresses and why).  The run first times fresh interpreters
importing towergrowth (set-up), then runs whole rounds of the workload, each
in a fresh single-threaded interpreter (``child.py``), for ``--seconds``.
Every operation's output is checked against a value computed apart from the
program.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over the rounds; with ``--trace 1`` rounds
alternate untraced and traced, and the metrics are the per-layer ones from
the traced rounds plus the tracing overhead.  The result and, when traced,
the spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
ROUND_TIMEOUT_S = 150

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import towergrowth
print(json.dumps({"numpy_s": t1 - t0}))
"""


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _setup_once(env: dict[str, str]) -> tuple[float, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=60, cwd=ROOT,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"importing towergrowth failed:\n{done.stderr}")
    return wall, json.loads(done.stdout)["numpy_s"]


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing towergrowth, and
    median time of its numpy import.  One unmeasured import first writes
    the bytecode caches, which a user pays once, not on every run."""
    _setup_once(env)
    samples = [_setup_once(env) for _ in range(SETUP_REPEATS)]
    return (
        statistics.median(w for w, _ in samples),
        statistics.median(n for _, n in samples),
    )


def run_round(workload: str, seed: int, trace: bool, env: dict[str, str]) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        capture_output=True, text=True, env=env, timeout=ROUND_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"round of {workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tally(ops: list[list]) -> tuple[bool, int]:
    """(correct, failed) over [name, seconds, reason, known_fault] records.

    Every operation with a wrong result counts as failed.  The run stays
    correct only while each failure is the known fault its operation names.
    """
    failures = [op for op in ops if op[2] is not None]
    unknown = [op for op in failures if op[3] is None]
    for name, _, reason, _ in unknown:
        print(f"wrong result: {name}: {reason}", file=sys.stderr)
    return not unknown, len(failures)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "towergrowth" / "__init__.py").is_file():
        print(f"error: no towergrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    end_to_end_units, per_layer_units = _metric_units()
    env = _child_env()
    try:
        setup_s, numpy_s = measure_setup(env)
        rounds: list[tuple[bool, dict]] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_start = time.perf_counter()
            rounds.append((traced, run_round(args.workload, args.seed, traced, env)))
            now = time.perf_counter()
            # stop before a round that would end past --seconds, but run at
            # least one round (one untraced and one traced with --trace 1)
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and now + (now - round_start) > start + args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for _, r in rounds for op in r["ops"]]
    correct, failed = tally(ops)

    plain = [r for traced, r in rounds if not traced]
    totals = [sum(op[1] for op in r["ops"]) for r in plain]
    if args.trace:
        traced_rounds = [r for traced, r in rounds if traced]
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_rounds)
            for name in traced_rounds[0]["layers"]
        }
        layers["setup.numpy_import_s"] = numpy_s
        layers["trace.overhead_s"] = statistics.median(
            sum(op[1] for op in r["ops"]) for r in traced_rounds
        ) - statistics.median(totals)
        metrics = {name: _metric(layers[name], unit) for name, unit in per_layer_units.items()}
    else:
        values = {
            "setup_s": setup_s,
            "total_s": statistics.median(totals),
            "slowest_op_s": statistics.median(max(op[1] for op in r["ops"]) for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in end_to_end_units.items()}

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result, "rounds": len(rounds), "ops": ops}, indent=1) + "\n"
    )
    if args.trace:
        spans = [r["spans"] for traced, r in rounds if traced]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
