"""Measure one benchmark workload in this process and print the result as
one JSON line.  run.py starts it in a fresh process per measurement, so that
import time and peak memory belong to that workload alone:

    python3 perfbench/worker.py --workload mc_outage --seed 1 --seconds 56 --trace 0
    python3 perfbench/worker.py --workload mc_outage --setup-only

Set-up is everything before the timed loop: starting Python, importing numpy
and swiptfog, loading the workload's parameters and writing its input files.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def load_swiptfog():
    """Import swiptfog from this checkout's src/, never from elsewhere."""
    if not (SRC / "swiptfog" / "__init__.py").is_file():
        raise SystemExit(f"error: no swiptfog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swiptfog.cli
    if Path(swiptfog.__file__).resolve().parent != SRC / "swiptfog":
        raise SystemExit(f"error: swiptfog imported from {swiptfog.__file__}, "
                         f"not from {SRC}")
    return swiptfog.cli


def setup(workload, out):
    """Import swiptfog, write the workload's inputs and parse every
    parameter file it will pass, so a bad input fails before timing."""
    cli = load_swiptfog()
    shutil.rmtree(out, ignore_errors=True)
    workload.prepare(out)
    for path in sorted(out.rglob("*.cfg")):
        cli.load_params(path.read_text(), env={})
    return cli


@dataclass
class Rep:
    wall: float
    calls: list
    failed: int
    digests: dict
    facts: dict


def csv_digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def _call(cli, argv, sink, recorder):
    try:
        main = cli.main if recorder is None else recorder.wrap(spans.CLI_SPAN, cli.main)
        with contextlib.redirect_stdout(sink):
            return main(argv)
    except Exception:
        traceback.print_exc()
        return None


def run_rep(cli, workload, out, seed, recorder=None):
    """One repetition: every CLI call of the workload, timed, then checked."""
    sink = io.StringIO()
    codes, calls = [], []
    for argv in workload.commands(out, seed):
        started = time.perf_counter()
        codes.append(_call(cli, argv, sink, recorder))
        calls.append(time.perf_counter() - started)
    outcome = workload.check(out, codes)
    return Rep(sum(calls), calls, outcome.failed, csv_digests(out), outcome.facts)


def _more(walls, started, seconds):
    """Start another repetition only if a typical one still fits."""
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def measure(cli, workload, out, seed, seconds, trace):
    """Repeat the workload for about `seconds`, checking every repetition.

    The first repetition is an untimed warm-up: the first large numpy
    allocations fault their pages in.  Untraced runs report the end-to-end
    metrics over the repetitions after it, as means: host speed on a shared
    machine shifts in spells of seconds to minutes, and the mean over the
    run averages them where the median would pick one.  Traced runs make one
    more untraced repetition as the reference for the tracing overhead, then
    trace the rest and report the per-layer metrics."""
    started = time.perf_counter()
    reps = [run_rep(cli, workload, out, seed)]
    info = {}
    if trace:
        reps.append(run_rep(cli, workload, out, seed))
        recorder, total, traced = spans.SpanRecorder(), {}, []
        recorder.install()
        try:
            while not traced or _more([r.wall for r in traced], started, seconds):
                recorder.clear()
                traced.append(run_rep(cli, workload, out, seed, recorder))
                spans.add_summary(total, recorder.summary())
        finally:
            recorder.restore()
        recorder.save(out / "spans.npz")
        overhead = statistics.fmean(r.wall for r in traced) / reps[1].wall
        metrics = spans.layer_metrics(
            total, len(traced), workload.frames_per_rep,
            workload.instances_per_rep, overhead)
        info["sim_self_share"] = spans.sim_self_share(total)
        info["traced_walls_s"] = [r.wall for r in traced]
        reps += traced
    else:
        while len(reps) < 2 or _more([r.wall for r in reps], started, seconds):
            reps.append(run_rep(cli, workload, out, seed))
        wall = statistics.fmean(r.wall for r in reps[1:])
        items = workload.frames_per_rep or workload.instances_per_rep
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": (own + children) / 1024.0, "unit": "MiB"},
        }
    # A repetition whose CSVs differ from the first one's is wrong as a whole.
    failed = sum(r.failed if r.digests == reps[0].digests else workload.ops_per_rep
                 for r in reps)
    info.update(reps=len(reps), walls_s=[r.wall for r in reps],
                calls_s=[r.calls for r in reps],
                csv_sha256=reps[0].digests, checks=reps[0].facts)
    return {"attempted": workload.ops_per_rep * len(reps), "failed": failed,
            "metrics": metrics, "info": info}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]()
    out = OUT / workload.name
    cli = setup(workload, out)
    if args.setup_only:
        return 0
    result = measure(cli, workload, out, args.seed, args.seconds, args.trace)
    result["info"]["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
