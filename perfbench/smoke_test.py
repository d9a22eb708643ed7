#!/usr/bin/env python3
"""Smoke test of the campaign benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json twice untraced and twice traced at a
tiny budget and fails unless each run passes its own correctness checks,
the deterministic metrics repeat exactly across the two runs of a seed, and
every metric BENCHMARK.json names prints with its unit. Takes about two
minutes after the first build.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY_BUDGET = {
    "modbus_peachstar": 20000,
    "modbus_persistent": 2000,
    "iec104_tcp_session": 200,
}
# Metrics fixed by the seed and budget alone.
DETERMINISTIC = {
    0: ["paths", "edges", "unique_crashes"],
    1: ["session_states", "fuzzer.step_ns.n", "fuzzer.crack_ns.n",
        "protocols.process_ns.n", "fuzzer.crack_puzzles_per_seed"],
}


def run(workload, trace):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--budget", str(TINY_BUDGET[workload])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            results = []
            for attempt in (1, 2):
                rc, result = run(workload, trace)
                label = f"{workload} trace={trace} run {attempt}"
                if rc != 0 or not result.get("correct"):
                    failures.append(f"{label}: exit {rc}, result {result}")
                    continue
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if printed != units[trace]:
                    failures.append(f"{label}: metrics/units differ from "
                                    f"BENCHMARK.json")
                results.append(result["metrics"])
            if len(results) == 2:
                for name in DETERMINISTIC[trace]:
                    a, b = (r[name]["value"] for r in results)
                    if a != b:
                        failures.append(f"{workload} trace={trace}: {name} "
                                        f"{a} != {b}")
            print(f"{workload} trace={trace}: "
                  f"{'ok' if len(results) == 2 else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
