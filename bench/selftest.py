"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py [workload ...]

For each workload (default: all four) this makes two traced runs in
fresh processes with the same seed and checks that

- the work counters in tracing.EXACT_COUNTERS repeat exactly, so later
  changes can rest count claims on them;
- every run reports exactly the per-layer metrics BENCHMARK.json lists,
  and bench/layers.json maps each of them;
- the layer self times add up to the traced wall time.

Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orbits", "algebra", "search", "verify")
SEED = 7
# The harness's own work between spans (stdout capture, the timer) is
# outside the self times; allow it this share of the traced wall time.
SELF_SUM_SLACK = 0.02


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in bench["per_layer"]]
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [name for group in layers["groups"] for name in group["metrics"]]
    problems = []
    if sorted(mapped) != sorted(listed):
        problems.append(f"layers.json and BENCHMARK.json differ: "
                        f"{sorted(set(mapped) ^ set(listed))}")
    for workload in argv or WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        if sorted(first) != sorted(listed):
            problems.append(f"{workload}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(first) ^ set(listed))}")
        for name in tracing.EXACT_COUNTERS:
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} {first[name]} != {second[name]}")
        for run in (first, second):
            wall, self_sum = run["trace.wall_traced_s"], run["trace.self_sum_s"]
            if not 0 <= wall - self_sum <= SELF_SUM_SLACK * wall:
                problems.append(f"{workload}: self times sum to {self_sum:.4f} s "
                                f"of {wall:.4f} s traced")
        counters = {name: first[name] for name in tracing.EXACT_COUNTERS}
        print(f"{workload}: counters {counters}; trace overhead "
              f"{first['trace.overhead_s']:.3f} s and {second['trace.overhead_s']:.3f} s")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
