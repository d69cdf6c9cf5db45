#!/usr/bin/env python3
"""laga's benchmark: certified recovery and invariants on fresh inputs.

One workload, one process, run from the root of a checkout:

    python3 bench/run.py --workload recover --seed 1 --seconds 50 --trace 0

Every workload in turn, untraced and then traced, with the tracing
overhead:

    python3 bench/run.py [--seed 1] [--seconds 50]

A run does a fixed number of rounds, worked out from --seconds alone; a
round is one operation per case of the workload's ladder.  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Each run also
writes its details, and a traced run its spans, under bench/out/.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("recover", "invariants")
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
DEFAULT_SECONDS = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "round_p50_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(name: str, seed: int, seconds: float, trace: bool):
    """Import laga from this checkout, build the ladder's lattices and
    make every input of the run.  Returns (seconds taken, ladders
    module, workload, inputs, tracer)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import laga

    if not Path(laga.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"laga imported from {laga.__file__}, not from {SRC}")
    import ladders

    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracer.install()
    workload = ladders.WORKLOADS[name]
    inputs = ladders.make_inputs(workload, seed, ladders.rounds_for(workload, seconds))
    return time.perf_counter() - start, ladders, workload, inputs, tracer


def probe_setup(args) -> list[float]:
    """Set-up times of fresh interpreters, so each one imports laga anew."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--probe-setup", *_run_args(args, trace=0)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _run_args(args, trace: int) -> list[str]:
    return [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]


def timed_rounds(ladders, workload, inputs, tracer) -> dict:
    """Run every round; time each operation, then check its output."""
    operate, check = ladders.OPERATIONS[workload.kind]
    round_s, op_s, problems = [], [], []
    passed = failed = 0
    for r, row in enumerate(inputs):
        spent = 0.0
        for c, inp in enumerate(row):
            tracer.op = r * len(row) + c
            start = time.perf_counter()
            try:
                output = operate(inp, tracer)
            except Exception as exc:  # a failed operation must not end the run
                elapsed = time.perf_counter() - start
                failed += 1
                error = f"{type(exc).__name__}: {exc}"
                if error != inp.case.known_failure:
                    traceback.print_exc()
                    problems.append(f"round {r} {inp.case.name}: {error}")
            else:
                elapsed = time.perf_counter() - start
                found = check(inp, output)
                problems += [f"round {r} {inp.case.name}: {p}" for p in found]
                if not found:
                    passed += 1
            spent += elapsed
            op_s.append((inp.case.name, elapsed))
        round_s.append(spent)
    return {
        "rounds": len(inputs),
        "attempted": len(op_s),
        "failed": failed,
        "passed": passed,
        "problems": problems,
        "round_s": round_s,
        "op_s": op_s,
        "ops_per_s": passed / sum(round_s),
    }


def check_tracing(ladders, tracer) -> None:
    """Before a traced run's rounds, run one small operation of each kind
    on Boolean 3 and require a span from every layer, so a wrapper that
    no call reaches is caught.  These spans count as set-up."""
    for kind, case, scramble_seed in (
        ("recover", ladders.Case("boolean", (3,), 3), 1),
        ("invariants", ladders.Case("boolean", (3,)), None),
    ):
        operate, check = ladders.OPERATIONS[kind]
        inp = ladders.Input(case, case.build(), scramble_seed)
        problems = check(inp, operate(inp, tracer))
        if problems:
            raise RuntimeError(f"tracing check, {kind}: {problems}")
    missing = set(tracing.WRAPPED) - {name.split(".")[0] for name in tracer.names}
    if missing:
        raise RuntimeError(f"tracing check: no spans from {sorted(missing)}")


def run_workload(args) -> int:
    trace = args.trace == 1
    try:
        setup_s, ladders, workload, inputs, tracer = set_up(
            args.workload, args.seed, args.seconds, trace
        )
    except ImportError as exc:
        print(f"cannot import laga from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if trace:
        check_tracing(ladders, tracer)
    run = timed_rounds(ladders, workload, inputs, tracer)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in tracer.metrics().items()
        }
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        setup_samples = [setup_s] + probe_setup(args)
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": run["ops_per_s"],
            "round_p50_s": statistics.median(run["round_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        run["setup_samples_s"] = setup_samples
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "run": run, "result": result}, fh, indent=1)
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_cells"):
        return "cells"
    return "count"


def run_all(args) -> int:
    """Every workload untraced, then traced; print each metric with its
    unit and the traced/untraced ops_per_s ratio."""
    status = 0
    for name in WORKLOAD_NAMES:
        args.workload = name
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, *_run_args(args, trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                return proc.returncode
            results[trace] = json.loads(proc.stdout.splitlines()[-1])
        untraced, traced = results[0], results[1]
        print(f"== {name}: attempted {untraced['attempted']}, failed {untraced['failed']}, "
              f"correct {untraced['correct'] and traced['correct']}")
        for trace in (0, 1):
            for metric, entry in results[trace]["metrics"].items():
                print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        with open(OUT / f"{name}-seed{args.seed}-trace1.json") as fh:
            traced_rate = json.load(fh)["run"]["ops_per_s"]
        ratio = traced_rate / untraced["metrics"]["ops_per_s"]["value"]
        print(f"  tracing: ops_per_s traced/untraced = {ratio:.3f}")
        if not (untraced["correct"] and traced["correct"]):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
