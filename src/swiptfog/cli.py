"""Command-line front end: single-frame allocation reports, parameter sweeps,
storage simulations and closed-form verification.

Subcommands
-----------
allocate   solve one frame (drawn channel or explicit gains) and print both
           strategies plus the decision
sweep      Monte-Carlo aggregates along one parameter axis, written as CSV
simulate   multi-frame storage statistics, written as CSV
verify     certify the closed-form optima against the grid searches and the
           root solver against bisection

Every run is reproducible: all randomness flows from --seed, CSV floats are
written with repr so files are byte-identical across runs, and --jobs only
changes wall time, never results.

Exit codes: 0 success, 1 usage error, 2 invalid configuration,
3 verification failure.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import bruteforce
from .allocator import (
    Strategy,
    decision_inequality,
    decide,
    evaluate_strategies,
    lambert_w0,
)
from .channel import realize_channels
from .energy import offload_bits, offload_power
from .params import SystemParams, load_params
from .sim import (
    FRAME_STATS_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    SweepAxis,
    monte_carlo,
    sweep,
    sweep_csv_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

_AXES = {
    "ops-per-bit": SweepAxis.OPS_PER_BIT,
    "dist-ap-dev": SweepAxis.DIST_AP_DEV,
    "dist-dev-server": SweepAxis.DIST_DEV_SERVER,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _load_config(path: str | None) -> SystemParams:
    if path is None:
        return load_params("")
    with open(path) as fh:
        return load_params(fh.read())


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _print_strategy(name: str, result) -> None:
    if not result.feasible:
        print(f"{name}: infeasible")
        return
    a, b = result.allocation, result.breakdown
    print(f"{name}: cost={_fmt(b.cost)} J  "
          f"tau_e={_fmt(a.tau_e)} tau_d={_fmt(a.tau_d)} "
          f"tau_c={_fmt(a.tau_c)} tau_o={_fmt(a.tau_o)} p_o={_fmt(a.p_o)}")
    print(f"    decode={_fmt(b.e_decode)} compute={_fmt(b.e_compute)} "
          f"offload={_fmt(b.e_offload)} harvest={_fmt(b.e_harvest)}")


def cmd_allocate(args) -> int:
    params = _load_config(args.config)
    explicit = args.gain_down is not None and args.gain_offload is not None
    if not explicit and args.seed is None:
        print("error: --seed is required unless both --gain-down and "
              "--gain-offload are given", file=sys.stderr)
        return EXIT_USAGE
    for name in ("gain_down", "gain_offload"):
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            print(f"error: --{name.replace('_', '-')} must be a finite, "
                  f"non-negative gain, got {value!r}", file=sys.stderr)
            return EXIT_USAGE
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    counts = {Strategy.LOCAL_COMPUTE: 0, Strategy.OFFLOAD: 0,
              Strategy.HARVEST_ONLY: 0}
    repeat = max(1, args.repeat)
    last = None
    for _ in range(repeat):
        if explicit:
            gd, go = args.gain_down, args.gain_offload
        else:
            ch = realize_channels(params, rng)
            gd, go = ch.eff_gain_down, ch.gain_offload
        local, offload = evaluate_strategies(params, gd, go)
        alloc, brk = decide(params, gd, go, args.e_stored,
                            precomputed=(local, offload))
        counts[alloc.strategy] += 1
        last = (gd, go, local, offload, alloc, brk)
    gd, go, local, offload, alloc, brk = last
    print(f"channel: eff_gain_down={_fmt(gd)} gain_offload={_fmt(go)}")
    _print_strategy("local  ", local)
    _print_strategy("offload", offload)
    if alloc.strategy is Strategy.HARVEST_ONLY:
        reason = ("no feasible strategy" if not (local.feasible or offload.feasible)
                  else "cheapest cost exceeds stored energy")
        print(f"decision: harvest_only ({reason}); "
              f"banked {_fmt(brk.e_harvest)} J")
    else:
        print(f"decision: {alloc.strategy.value} (i_o={alloc.i_o}), "
              f"cost {_fmt(brk.cost)} J")
    if repeat > 1:
        total = sum(counts.values())
        print(f"over {total} draws: local={counts[Strategy.LOCAL_COMPUTE]/total:.3f} "
              f"offload={counts[Strategy.OFFLOAD]/total:.3f} "
              f"harvest_only={counts[Strategy.HARVEST_ONLY]/total:.3f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = _load_config(args.config)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: --values must list at least one number", file=sys.stderr)
        return EXIT_USAGE
    axis = _AXES[args.axis]
    rows = sweep(params, axis, values, n_frames=args.frames,
                 n_trials=args.trials, master_seed=args.seed, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"sweep_{axis.value}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        writer.writerows(sweep_csv_rows(rows))
    for row in rows:
        a = row.averages
        print(f"{axis.value}={_fmt(row.value)}: "
              f"cost_local={_fmt(a.mean_cost_local)} "
              f"cost_offload={_fmt(a.mean_cost_offload)} "
              f"outage={row.outage:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _load_config(args.config)
    result = monte_carlo(params, n_frames=args.frames, n_trials=args.trials,
                         master_seed=args.seed, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "frames.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_STATS_CSV_COLUMNS)
        for f in range(result.n_frames):
            writer.writerow([str(f), repr(result.mean_storage[f]),
                             repr(result.outage_per_frame[f])])
    print(f"frames={result.n_frames} trials={result.n_trials} "
          f"outage={result.outage:.4f} (ci {result.outage_ci:.4f}) "
          f"mean_processed_cost={_fmt(result.mean_processed_cost)} J")
    print(f"wrote {path}")
    return EXIT_OK


# Consecutive infeasible draws after which verify gives up on a configuration.
MAX_REJECTED_DRAWS = 10_000


def _verify_instances(params: SystemParams, rng: np.random.Generator, n: int):
    """Yield (gain_down, gain_offload) pairs feasible for both programs.

    Raises ValueError after MAX_REJECTED_DRAWS infeasible draws in a row.
    """
    made = rejected = 0
    while made < n:
        gd = 10.0 ** rng.uniform(-8.0, -3.0)
        go = 10.0 ** rng.uniform(-8.0, -4.0)
        local, offload = evaluate_strategies(params, gd, go)
        if local.feasible and offload.feasible:
            made += 1
            rejected = 0
            yield gd, go
        else:
            rejected += 1
            if rejected == MAX_REJECTED_DRAWS:
                raise ValueError(
                    f"no feasible instance found in {MAX_REJECTED_DRAWS} draws: "
                    "no sampled gain pair makes both local computing and "
                    "offloading feasible under this configuration")


def cmd_verify(args) -> int:
    params = _load_config(args.config)
    rng = np.random.default_rng(args.seed)
    failures = 0
    report_rows = []

    # root solver against bisection
    xs = np.concatenate([
        -1.0 / math.e + 10.0 ** np.linspace(-9, math.log10(1.0 / math.e), 200),
        10.0 ** np.linspace(-12, 6, 800),
    ])
    worst_resid = 0.0
    worst_gap = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        resid = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        gap = abs(w - bruteforce.bisect_lambert(float(x)))
        worst_resid = max(worst_resid, resid)
        worst_gap = max(worst_gap, gap)
    ok = worst_resid <= 1e-12 and worst_gap <= 1e-11
    failures += 0 if ok else 1
    print(f"root solver: residual {worst_resid:.2e}, vs bisection "
          f"{worst_gap:.2e} -> {'ok' if ok else 'FAIL'}")

    spec = bruteforce.GridSpec.for_frame(params.frame_duration)
    worst_local = worst_off = worst_rate = 0.0
    for idx, (gd, go) in enumerate(_verify_instances(params, rng,
                                                     args.instances)):
        local, offload = evaluate_strategies(params, gd, go)
        _, _, cost_grid = bruteforce.brute_local(params, gd, spec)
        tol_l = bruteforce.local_grid_tolerance(params, gd, spec)
        dev_l = abs(local.cost - cost_grid)
        ok_l = dev_l <= tol_l and cost_grid >= local.cost - tol_l

        tau_o = offload.allocation.tau_o * (1.0 + args.perturb_offload_time)
        cost_claim = (offload.breakdown.e_decode
                      + tau_o * offload_power(params, go, tau_o)
                      - params.eh_efficiency * (gd + params.noise_dev)
                      * (params.frame_duration
                         - offload.allocation.tau_d - tau_o))
        _, _, cost_grid_o = bruteforce.brute_offload(params, gd, go, spec)
        tol_o = bruteforce.offload_grid_tolerance(params, gd, go, spec, tau_o)
        dev_o = abs(cost_claim - cost_grid_o)
        ok_o = dev_o <= tol_o and cost_grid_o >= cost_claim - tol_o

        delivered = offload_bits(params, go, offload.allocation.p_o,
                                 offload.allocation.tau_o)
        rate_dev = abs(delivered - params.bits_per_frame) / params.bits_per_frame
        ok_r = rate_dev <= 1e-9

        worst_local = max(worst_local, dev_l / max(tol_l, 1e-300))
        worst_off = max(worst_off, dev_o / max(tol_o, 1e-300))
        worst_rate = max(worst_rate, rate_dev)
        if not (ok_l and ok_o and ok_r):
            failures += 1
            print(f"instance {idx}: gd={gd!r} go={go!r} "
                  f"dev_local={dev_l!r} (tol {tol_l!r}) "
                  f"dev_offload={dev_o!r} (tol {tol_o!r}) rate_dev={rate_dev!r}")
        report_rows.append([str(idx), repr(gd), repr(go), repr(local.cost),
                            repr(cost_grid), repr(cost_claim), repr(cost_grid_o),
                            repr(rate_dev),
                            "pass" if (ok_l and ok_o and ok_r) else "fail"])
    print(f"grid check: {args.instances} instances, worst local dev "
          f"{worst_local:.3f}x tol, worst offload dev {worst_off:.3f}x tol, "
          f"worst rate dev {worst_rate:.2e}")

    agree = 0
    total = 1000
    for gd, go in _verify_instances(params, rng, total):
        local, offload = evaluate_strategies(params, gd, go)
        lhs, rhs = decision_inequality(params, gd, go)
        if (offload.cost < local.cost) == (lhs > rhs):
            agree += 1
    ok = agree == total
    failures += 0 if ok else 1
    print(f"mode rule vs cost comparison: {agree}/{total} agree "
          f"-> {'ok' if ok else 'FAIL'}")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "verify.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "gain_down", "gain_offload",
                             "cost_local_closed", "cost_local_grid",
                             "cost_offload_closed", "cost_offload_grid",
                             "rate_deviation", "status"])
            writer.writerows(report_rows)
        print(f"wrote {path}")
    if failures:
        print(f"verification FAILED ({failures} check(s))")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swiptfog", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=True):
        p.add_argument("--config", help="path to a key=value parameter file")
        p.add_argument("--seed", type=int, required=seed_required,
                       help="master seed; all randomness derives from it")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker processes (results are jobs-independent)")
        p.add_argument("--out-dir", default=".", help="directory for CSV output")

    p = sub.add_parser("allocate", help="solve and report a single frame")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--gain-down", type=float,
                   help="explicit effective downlink gain (skip channel draw)")
    p.add_argument("--gain-offload", type=float,
                   help="explicit offload power gain (skip channel draw)")
    p.add_argument("--repeat", type=int, default=1,
                   help="number of channel draws to aggregate")
    p.add_argument("--e-stored", type=float, default=math.inf,
                   help="stored energy budget in joules (default: unlimited)")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("sweep", help="aggregate statistics along one axis")
    common(p)
    p.add_argument("--axis", choices=sorted(_AXES), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--frames", type=_positive_int, default=100)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="multi-frame storage statistics")
    common(p)
    p.add_argument("--frames", type=_positive_int, default=100)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="certify closed forms against grid search")
    common(p)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--perturb-offload-time", type=float, default=0.0,
                   help="self-test hook: fractional perturbation applied to "
                        "the claimed offload slot (nonzero must fail)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
