#!/usr/bin/env python3
"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload corridor --seed 42 --seconds 30 --trace 0

Builds perfbench/ (the library from src/ plus the platoon_perf program) in
Release under .bench_build/perfbench, runs the workload on one thread and
prints, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the same workload and seed twice, in separate processes: untraced, then
traced (obs on, spans around every public call, written to
.bench_build/perfbench/spans/). It reports the per-layer metrics of the
traced run plus obs.trace_overhead, and is correct only if both runs print
the same digest. Arguments after "--" go to platoon_perf unchanged (the
self-tests use them to shrink a workload).

Exit status: 0 when the outputs are correct, 1 when a run counted failed
operations or broke an invariant (the JSON line says which), 2 when there
is nothing to report (no sources to build, a build or set-up failure).
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corridor", "corridor_jammed", "mitigation_grid")
TIME_LIMIT_S = 175.0  # a run must end within 180 s


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds platoon_perf; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    if not (ROOT / "scenarios").is_dir():
        raise RuntimeError(f"no scenario descriptions under {ROOT / 'scenarios'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "platoon_perf",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "platoon_perf"


def run_program(binary, args, traced, extra, deadline):
    """Runs platoon_perf once and returns its report (a dict)."""
    out = build_dir()
    mode = "traced" if traced else "untraced"
    stem = f"{args.workload}-seed{args.seed}"
    report = out / "reports" / f"{stem}-{mode}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    if report.exists():
        report.unlink()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scenario-dir", str(ROOT / "scenarios"),
               "--report", str(report)]
    if traced:
        spans = out / "spans" / f"{stem}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace", "--spans", str(spans)]
    command += extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the " + mode + " run")
    try:
        done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} run exceeded the time limit")
    if done.returncode not in (0, 1) or not report.is_file():
        raise RuntimeError(f"{mode} run ended with status {done.returncode} "
                           "and no report")
    with open(report) as f:
        return json.load(f)


def main():
    start = time.monotonic()
    # platoon_perf writes to the same stdout; keep the order of lines.
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
        # The build is not part of a run's time limit.
        deadline = time.monotonic() + TIME_LIMIT_S
        untraced = run_program(binary, args, False, extra, deadline)
        result = {"correct": untraced["correct"],
                  "attempted": untraced["attempted"],
                  "failed": untraced["failed"],
                  "metrics": untraced["metrics"]}
        if args.trace:
            traced = run_program(binary, args, True, extra, deadline)
            same = traced["digest"] == untraced["digest"]
            if not same:
                log(f"traced digest {traced['digest']} differs from "
                    f"untraced {untraced['digest']}")
            # Both at the gauge's reference speed, so host drift between
            # the two processes does not read as tracing cost.
            overhead = (traced["timed_reference_s"] /
                        untraced["timed_reference_s"])
            for run, name in ((untraced, "untraced"), (traced, "traced")):
                print(f"timed phase {name}: {run['timed_s']:.4f} s host, "
                      f"{run['timed_reference_s']:.4f} s at reference speed")
            metrics = dict(traced["metrics"])
            metrics["obs.trace_overhead"] = {"value": overhead,
                                             "unit": "ratio"}
            print(f"metric obs.trace_overhead {overhead!r} ratio")
            result = {"correct": untraced["correct"] and traced["correct"]
                      and same,
                      "attempted": untraced["attempted"] + traced["attempted"],
                      "failed": untraced["failed"] + traced["failed"],
                      "metrics": metrics}
    except (OSError, RuntimeError, ValueError, KeyError) as error:
        log(f"no result: {error}")
        return 2
    log(f"done in {time.monotonic() - start:.1f} s")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
