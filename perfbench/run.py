"""swiptfog benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_outage --seed 1 --seconds 56 --trace 0

Workloads (see perfbench/README.md and workloads.py): mc_outage, verify_grid.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The line before it holds
the run's provenance, checks and CSV digests; the same record is written to
.bench_out/<workload>/result.json.

The set-up time is the median wall time of SETUP_SAMPLES fresh processes
that only set up; the measurement itself runs in one more fresh process, so
its peak memory is that of the workload alone.  Exits 2 without a result when the
checkout holds no swiptfog sources, and 1 when a measurement fails.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
# Seconds a set-up process may take, and a measuring one beyond the
# requested run length, before it is killed; keeps a run within three minutes.
SETUP_TIMEOUT_S = 10
GRACE_S = 100


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def child(args, timeout):
    """Run worker.py with args; return its stdout.  The worker gets its own
    process group, so that a timeout also stops the Pool processes it
    started."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SWIPTFOG_")}
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return stdout


def setup_time(common):
    started = time.perf_counter()
    child([*common, "--setup-only"], SETUP_TIMEOUT_S)
    return time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "swiptfog" / "__init__.py").is_file():
        print(f"error: no swiptfog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    try:
        setups = ([] if args.trace else
                  [setup_time(common) for _ in range(SETUP_SAMPLES)])
        stdout = child([*common, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], args.seconds + GRACE_S)
        result = json.loads(stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "failed_frac": failed / attempted, "setup_samples_s": setups,
        **result["info"],
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    out = ROOT / ".bench_out" / args.workload
    (out / "result.json").write_text(
        json.dumps({"provenance": provenance, **line}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
