"""Interleaved benchmark pairs: a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_8.json \
        --workload mc_outage --seed 1 --pairs 10 --seconds 56
    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_8.json \
        --pool 100x250,200x2000

The parent commit (--parent: HEAD~1 once the change is committed, HEAD
while it is not) is unpacked with ``git archive`` into a temporary
directory.  Each pair runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in the parent and once in this
checkout's working tree; the parent goes first on odd pairs, the change on
even ones.  The record of every run, each side's median and quartiles of
every end-to-end metric of BENCHMARK.json, and the pairs the change wins
are written to results["<W>_seed<S>"] of --out; other keys of an existing
file are kept, so seeds and workloads can be added by later calls.

With --pool, each side instead times one in-process monte_carlo call per
FRAMESxTRIALS size (criterion-6 parameters at 10 m) with jobs=1 and jobs=2,
POOL_REPEATS times, sides and job counts interleaved; the result goes to
results["pool"].
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]

POOL_REPEATS = 3

# Times one monte_carlo call; run with the side's src/ first on sys.path.
_POOL_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from swiptfog import load_params, monte_carlo
from swiptfog.params import with_overrides
p = with_overrides(load_params("", env={}), ops_per_bit=1e4, dist_ap_dev=10.0)
frames, trials, jobs = map(int, sys.argv[2:5])
start = time.perf_counter()
mc = monte_carlo(p, frames, trials, master_seed=256, jobs=jobs)
print(json.dumps({"s": time.perf_counter() - start, "outage": mc.outage}))
"""


def _clean_env():
    """The environment without anything that could point either side at
    the other's sources."""
    return {k: v for k, v in os.environ.items()
            if k != "PYTHONPATH" and not k.startswith("SWIPTFOG_")}


def cpu_model():
    """The first "model name" of /proc/cpuinfo; None where there is none."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def unpack(rev, into):
    """The tree of rev, unpacked under into; returns its commit id."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = Path(into) / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(into) / "tree", filter="data")
    archive.unlink()
    return sha, Path(into) / "tree"


def run_bench(tree, workload, seed, seconds):
    """One perfbench run in tree: its provenance and metrics line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=_clean_env(), capture_output=True, text=True,
        timeout=2 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, names):
    """One side's runs: correctness, digests, checks and metric quartiles."""
    ok = [r for r in runs if "metrics" in r]
    side = {
        "correct_all": len(ok) == len(runs) and all(r["correct"] for r in ok),
        "failed_frac_max": max((r["provenance"]["failed_frac"] for r in ok),
                               default=None),
        "attempted": [r["attempted"] for r in ok],
        "failed": [r["failed"] for r in ok],
        "csv_sha256": ok[0]["provenance"].get("csv_sha256") if ok else None,
        "csv_sha256_same_in_every_run": len({json.dumps(
            r["provenance"].get("csv_sha256"), sort_keys=True) for r in ok}) == 1,
        "checks": [r["provenance"].get("checks") for r in ok],
        "metrics": {},
    }
    for name in names:
        values = [r["metrics"][name]["value"] for r in ok if name in r["metrics"]]
        if values:
            side["metrics"][name] = {**_quartiles(values), "runs": values}
    return side


def compare(parent, change, pairs, metrics):
    """Per metric: pairs won by the change, the median ratio and whether
    the change stays within the benchmark's bound."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p_runs = [r["metrics"][name]["value"] for r in parent]
        c_runs = [r["metrics"][name]["value"] for r in change]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(p_runs, c_runs))
        p, c = statistics.median(p_runs), statistics.median(c_runs)
        q = _quartiles(p_runs)
        worse = (c - p) / p if lower else (p - c) / p
        out[name] = {
            "change_wins": f"{wins}/{pairs}",
            "median_ratio_change_over_parent": c / p,
            "median_gap_exceeds_parent_iqr": abs(c - p) > q["q3"] - q["q1"],
            "change_worse_by_frac": worse,
            "bound": m["bound"],
            "within_bound": worse <= m["bound"],
        }
    return out


def bench_pairs(parent_tree, workload, seed, pairs, seconds, metrics):
    sides = {"parent": [], "change": []}
    trees = {"parent": parent_tree, "change": ROOT}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            result = run_bench(trees[side], workload, seed, seconds)
            sides[side].append(result)
            value = result.get("metrics", {}).get("items_per_s", {}).get("value")
            print(f"pair {i} {side}: items_per_s={value}", flush=True)
    names = [m["name"] for m in metrics]
    entry = {
        "pairs": pairs,
        "first_in_pair": "parent on odd pairs, change on even pairs",
        **{side: summarize(runs, names) for side, runs in sides.items()},
    }
    if all("metrics" in r for runs in sides.values() for r in runs):
        entry["comparison"] = compare(sides["parent"], sides["change"],
                                      pairs, metrics)
    return entry


def pool_timings(parent_tree, sizes):
    times = {}
    trees = {"parent": parent_tree, "change": ROOT}
    for r in range(POOL_REPEATS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for frames, trials in sizes:
            for side in order:
                for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
                    proc = subprocess.run(
                        [sys.executable, "-c", _POOL_SNIPPET,
                         str(trees[side] / "src"), str(frames), str(trials),
                         str(jobs)],
                        env=_clean_env(), capture_output=True, text=True,
                        check=True, timeout=600)
                    key = f"{side} {frames}x{trials} jobs={jobs}"
                    times.setdefault(key, []).append(json.loads(proc.stdout))
                    print(key, times[key][-1], flush=True)
    return {key: {"s_runs": [t["s"] for t in ts],
                  "s_min": min(t["s"] for t in ts),
                  "s_median": statistics.median(t["s"] for t in ts),
                  "outage": ts[0]["outage"]}
            for key, ts in times.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to update")
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", help="perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--pool", help="comma-separated FRAMESxTRIALS sizes")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.pool is None):
        parser.error("give exactly one of --workload and --pool")

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        sha, parent_tree = unpack(args.parent, tmp)
        record.update({
            "what": "swiptfog benchmark, parent commit vs this change, "
                    "interleaved pairs (tools/bench_pairs.py)",
            "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                       "--seconds <t> --trace 0",
            "parent": sha,
            "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__},
        })
        results = record.setdefault("results", {})
        started = time.time()
        if args.pool:
            sizes = [tuple(map(int, s.split("x"))) for s in args.pool.split(",")]
            results["pool"] = pool_timings(parent_tree, sizes)
        else:
            results[f"{args.workload}_seed{args.seed}"] = bench_pairs(
                parent_tree, args.workload, args.seed, args.pairs, args.seconds,
                bench["end_to_end"])
        print(f"done in {time.time() - started:.0f} s", flush=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
