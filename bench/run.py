"""szk benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload {queries,fuzz,oracle_deep,cli_cold} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; szk is imported from its ``src/``.  The
workload runs in a fresh child process (``child.py``).  For end-to-end
metrics (--trace 0) set-up is also timed in SETUP_SAMPLES - 1 more fresh
processes, and ``setup_s`` is the median of all samples.  The last line of
standard output is the result as JSON; the line before it is a report with
provenance, input-shape shares and the first failures.

BENCHMARK.json lists all workloads but oracle_deep, the least steady one,
which its run-time budget leaves out.  See NOTES.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("queries", "fuzz", "oracle_deep", "cli_cold")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


def child(args, deadline, *extra):
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.exit("benchmark child failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return proc.stdout.splitlines()


def main():
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "szk" / "__init__.py").is_file():
        sys.exit("no szk package under %s" % (ROOT / "src"))

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(json.loads(child(args, deadline, "--setup-only")[-1])["setup_s"])
    lines = child(args, deadline)
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report = json.loads(lines[-2])
        report["report"]["setup_samples_s"] = setups
        lines[-2] = json.dumps(report)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired:
        sys.exit("benchmark child ran past the %.0f s deadline" % DEADLINE_S)
