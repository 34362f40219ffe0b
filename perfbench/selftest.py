#!/usr/bin/env python3
"""Self-tests for the benchmark, on tiny horizons and a few grid cells.

    python3 perfbench/selftest.py          # about a minute after the build
    python3 perfbench/selftest.py --full   # adds the 30 s corridor counts

Each test drives perfbench/run.py as the benchmark's users do, shrinking
the workload with platoon_perf arguments after "--". Exits non-zero if any
test fails.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_CORRIDOR = ["--horizon-s", "1", "--setups", "2"]
TINY_GRID = ["--cells", "2", "--setups", "2"]


class Run:
    """One run.py invocation: exit status, stdout lines, the final JSON."""

    def __init__(self, workload, seed=42, trace=0, extra=(), cwd=ROOT,
                 script=HERE / "run.py"):
        command = [sys.executable, str(script), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--", *extra]
        done = subprocess.run(command, cwd=cwd, capture_output=True,
                              text=True, timeout=600)
        self.status = done.returncode
        self.stderr = done.stderr
        self.lines = done.stdout.splitlines()
        try:
            self.result = json.loads(self.lines[-1]) if self.lines else None
        except json.JSONDecodeError:
            self.result = None

    def digest(self):
        return self.value("digest.hash")

    def digest_lines(self):
        return [line for line in self.lines if line.startswith("digest ")]

    def value(self, key):
        """The value printed for `key`, on its own or as a digest line."""
        for line in self.lines:
            parts = line.split()
            if parts[:1] == ["digest"]:
                parts = parts[1:]
            if len(parts) >= 2 and parts[0] == key:
                return parts[1]
        raise AssertionError(f"no '{key}' line in output")


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def test_every_metric_prints_with_its_unit():
    for workload, tiny in (("corridor", TINY_CORRIDOR),
                           ("corridor_jammed", TINY_CORRIDOR),
                           ("mitigation_grid", TINY_GRID)):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = Run(workload, trace=trace, extra=tiny)
            check(run.status == 0, f"{workload} trace {trace}: status "
                  f"{run.status}\n{run.stderr}")
            result = run.result
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{workload}: {result}")
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            check(set(result["metrics"]) == set(expected),
                  f"{workload} trace {trace}: metric names differ: "
                  f"{sorted(set(result['metrics']) ^ set(expected))}")
            for name, unit in expected.items():
                metric = result["metrics"][name]
                check(metric["unit"] == unit and
                      isinstance(metric["value"], (int, float)),
                      f"{workload}: {name} = {metric}")
                check(any(line.startswith(f"metric {name} ") and
                          line.endswith(f" {unit}") for line in run.lines),
                      f"{workload}: no printed line for {name} [{unit}]")


def test_digest_repeats_at_a_seed_and_moves_with_it():
    for workload, tiny in (("corridor", TINY_CORRIDOR),
                           ("mitigation_grid", TINY_GRID)):
        first = Run(workload, seed=42, extra=tiny).digest()
        again = Run(workload, seed=42, extra=tiny).digest()
        other = Run(workload, seed=43, extra=tiny).digest()
        check(first == again, f"{workload}: seed 42 gave {first} then {again}")
        check(first != other, f"{workload}: seeds 42 and 43 both gave {first}")


def test_stepping_matches_one_run_until_call():
    for workload in ("corridor", "corridor_jammed"):
        tiny = ["--horizon-s", "2", "--setups", "1"]
        stepped = Run(workload, extra=tiny)
        single = Run(workload, extra=tiny + ["--single-call"])
        check(stepped.digest_lines() == single.digest_lines(),
              f"{workload}: 100 ms steps and one call disagree")


def test_jammer_is_on_inside_the_timed_horizon():
    clean = Run("corridor", extra=TINY_CORRIDOR)
    jammed = Run("corridor_jammed", extra=TINY_CORRIDOR)
    check(clean.digest() != jammed.digest(), "jammed digest equals clean")
    check(clean.value("net.dropped.per") != jammed.value("net.dropped.per"),
          "the jammer changed no reception inside 1 s")


def test_a_throwing_replication_fails_and_the_run_goes_on():
    run = Run("mitigation_grid",
              extra=["--cells", "3", "--setups", "1",
                     "--throw-replication", "1"])
    check(run.status == 1, f"status {run.status}")
    result = run.result
    check(result is not None and not result["correct"], f"{result}")
    check(result["attempted"] == 6 and result["failed"] == 1, f"{result}")
    shown = run.digest_lines()
    check(shown[0] == "digest cell.0 failed", f"{shown[:1]}")
    check(len(shown) == 3 and all("=" in line for line in shown[1:]),
          f"later cells did not run: {shown}")


def test_no_result_without_the_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = Run("corridor", extra=TINY_CORRIDOR, cwd=bare,
              script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    check(run.status != 0, "a bare checkout exited 0")
    check(run.result is None, f"a bare checkout printed {run.result}")


def test_full_corridor_reproduces_bench_scale_counts():
    run = Run("corridor", extra=["--setups", "1"])
    check(run.value("sim.events") == "3697012",
          f"events {run.value('sim.events')}")
    check(run.value("net.sent") == "307201", f"frames {run.value('net.sent')}")


def main():
    tests = [test_every_metric_prints_with_its_unit,
             test_digest_repeats_at_a_seed_and_moves_with_it,
             test_stepping_matches_one_run_until_call,
             test_jammer_is_on_inside_the_timed_horizon,
             test_a_throwing_replication_fails_and_the_run_goes_on,
             test_no_result_without_the_sources]
    if "--full" in sys.argv[1:]:
        tests.append(test_full_corridor_reproduces_bench_scale_counts)
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except AssertionError as error:
            failures += 1
            print(f"FAIL {test.__name__}: {error}", flush=True)
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
