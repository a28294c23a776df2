"""Interleaved benchmark pairs: a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_8.json \
        --workload mc_outage --seed 1 --pairs 10 --seconds 56

The parent commit (--parent: HEAD~1 once the change is committed, HEAD
while it is not) is unpacked with ``git archive`` into a temporary
directory.  Each pair runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in the parent and once in this
checkout's working tree; the parent goes first on odd pairs, the change on
even ones.  The record of every run, each side's median and quartiles of
every end-to-end metric of BENCHMARK.json, the pairs the change wins,
whether it shows a gain by the claim rule (gain_shown, see compare),
whether every run of both sides wrote the same CSV digests
(csv_sha256_same_as_parent), each side's src/ line count (src_lines),
line count per src/ module (src_module_lines) and random-stream version
(stream_version) are written to results["<W>_seed<S>"] of --out;
other keys of an existing file are kept, so seeds and workloads can be added
by later calls.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def _clean_env():
    """The environment without anything that could point either side at
    the other's sources, or tune the C library's allocator for one side."""
    return {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "GLIBC_TUNABLES")
            and not k.startswith("MALLOC_")}


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


def src_module_lines(tree):
    """Line count of each src/**/*.py in tree, keyed by its path under src/;
    their total is the size measure of ROADMAP aim 2."""
    src = Path(tree) / "src"
    return {path.relative_to(src).as_posix(): len(path.read_text().splitlines())
            for path in sorted(src.rglob("*.py"))}


def stream_version(tree):
    """The STREAM_VERSION = N of tree's src/swiptfog/sim.py, read from the
    text without importing it; None where there is none.  A change of
    version explains a change of the CSV digests."""
    try:
        text = (Path(tree) / "src" / "swiptfog" / "sim.py").read_text()
    except OSError:
        return None
    found = re.search(r"^STREAM_VERSION = (\d+)$", text, re.MULTILINE)
    return int(found.group(1)) if found else None


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
    """Per metric: pairs won by the change (ties count for neither side),
    the median ratio, whether the change stays within the benchmark's bound,
    and gain_shown, the rule for claiming a gain: the change wins at least
    nine tenths of the pairs, and its median beats the parent's, in the
    metric's better direction, by more than the parent's interquartile
    range."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p_runs = [r["metrics"][name]["value"] for r in parent]
        c_runs = [r["metrics"][name]["value"] for r in change]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(p_runs, c_runs))
        p, c = statistics.median(p_runs), statistics.median(c_runs)
        q = _quartiles(p_runs)
        gain = p - c if lower else c - p  # positive where the change is better
        worse = -gain / p
        out[name] = {
            "change_wins": f"{wins}/{pairs}",
            "median_ratio_change_over_parent": c / p,
            "parent_iqr": q["q3"] - q["q1"],
            "gain_shown": 10 * wins >= 9 * pairs and gain > q["q3"] - q["q1"],
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
    lines = {side: src_module_lines(tree) for side, tree in trees.items()}
    entry = {
        "pairs": pairs,
        "first_in_pair": "parent on odd pairs, change on even pairs",
        **{side: {**summarize(runs, names), "src_lines": sum(lines[side].values()),
                  "src_module_lines": lines[side],
                  "stream_version": stream_version(trees[side])}
           for side, runs in sides.items()},
    }
    parent, change = entry["parent"], entry["change"]
    entry["csv_sha256_same_as_parent"] = (
        parent["csv_sha256"] is not None
        and parent["csv_sha256"] == change["csv_sha256"]
        and parent["csv_sha256_same_in_every_run"]
        and change["csv_sha256_same_in_every_run"])
    print(f"csv_sha256_same_as_parent: {entry['csv_sha256_same_as_parent']}; "
          f"stream_version: parent {parent['stream_version']}, "
          f"change {change['stream_version']}; "
          f"src/ lines: parent {parent['src_lines']}, "
          f"change {change['src_lines']}", flush=True)
    if all("metrics" in r for runs in sides.values() for r in runs):
        entry["comparison"] = compare(sides["parent"], sides["change"],
                                      pairs, metrics)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to update")
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", required=True, help="perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=56.0)
    args = parser.parse_args(argv)

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
        results[f"{args.workload}_seed{args.seed}"] = bench_pairs(
            parent_tree, args.workload, args.seed, args.pairs, args.seconds,
            bench["end_to_end"])
        print(f"done in {time.time() - started:.0f} s", flush=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
