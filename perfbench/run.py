#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library, the fork-server shim and the benchmark program from the
source tree this script sits in (CMake, into .bench_build/perfbench, or
$CARGO_TARGET_DIR/perfbench when set), runs one workload, and prints the
result of campaign_bench as the last line of standard output: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

After campaign_bench exits this script checks that none of its processes
survived and that it left no /dev/shm segment behind. The exit code is 0
only when the build, the run and every check passed.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no icsfuzz source tree at {ROOT}; nothing to build")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    bench = out / "campaign_bench"
    return bench if bench.is_file() else None


def leftover_segments(pid):
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return [n for n in names if n.startswith(f"icsfuzz-{pid}-")]


def become_subreaper():
    """Makes servers orphaned by campaign_bench our children, so we can reap them.

    Fork servers run in process groups of their own, so killing the
    benchmark's group would miss them.
    """
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    return libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0


def children():
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            out.append(int(entry))
    return out


def reap_leftovers():
    """Kills and reaps every process campaign_bench left behind; True if none.

    Orphans that exit on their own within a short grace period do not
    count; killing a server can orphan its own children, so this repeats
    until nothing is left.
    """
    grace_end = time.monotonic() + 2.0
    leaked = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = children()
        if not left:
            return not leaked
        if time.monotonic() < grace_end:
            time.sleep(0.05)
            continue
        leaked = True
        for pid in left:
            log(f"perfbench: campaign_bench left process {pid} running; killing it")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in left:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def run_bench(bench, argv):
    """Runs campaign_bench; returns (rc, stdout, clean)."""
    subreaper = become_subreaper()
    proc = subprocess.Popen([str(bench)] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: campaign_bench timed out")
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        proc.returncode = proc.returncode or 1
    clean = reap_leftovers() if subreaper else True
    for name in leftover_segments(proc.pid):
        log(f"perfbench: campaign_bench left /dev/shm/{name}; removing it")
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
        clean = False
    return proc.returncode, stdout.decode(errors="replace"), clean


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int,
                        help="steps per campaign (default: the workload's)")
    args = parser.parse_args()

    bench = build()
    if bench is None:
        return 2

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.budget is not None:
        argv += ["--budget", str(args.budget)]
    rc, stdout, clean = run_bench(bench, argv)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log(f"perfbench: campaign_bench printed no result (exit code {rc})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: last line is not JSON: {lines[-1]!r}")
        return 1

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = expected_metrics(args.trace)
    printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(k for k in set(expected) & set(printed)
                       if printed[k] != expected[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, wrong unit {wrong}")
    if not clean:
        problems.append("processes or shared memory left behind")
    for problem in problems:
        log(f"perfbench: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
