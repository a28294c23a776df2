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

Every run is reproducible: all randomness flows from --seed, and _write_csv
writes each CSV cell as str(value), so files are byte-identical across
runs.  Runs are single-process.  The first main call in a process builds
the parser, which later calls reuse, and where the C library is glibc
raises its mmap and trim thresholds to 4 MiB and 32 MiB, so repeated runs
reuse the heap; importing the module or calling the library changes nothing.

Exit codes: 0 success, 1 usage error, 2 invalid configuration,
3 verification failure.
"""

import argparse
import math
import os
import sys
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import bruteforce
from ._libm import libm
from .allocator import (
    StrategyArrays,
    _affordable,
    _frame_result,
    _rule_disagreements,
    choose_modes,
    harvest_only_result,
    lambert_w0,
    solve_frames,
)
from .channel import draw_gains
from .energy import offload_bits
from .params import SystemParams, load_params
from .sim import StrategyAverages, SweepAxis, monte_carlo, sweep

# The traced benchmark run (perfbench/spans.py) wraps these module-level names.
from .allocator import decision_inequality, evaluate_strategies  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

_AXES = {axis.value.replace("_", "-"): axis for axis in SweepAxis}

# The headers of the CSV files; see README, "CSV schemas".
_FRAMES_COLUMNS = ("frame", "mean_storage", "outage_rate")
_SWEEP_COLUMNS = ("axis", "value", *(f.name for f in fields(StrategyAverages)),
                  "outage", "outage_ci")
_VERIFY_COLUMNS = ("instance", "gain_down", "gain_offload", "cost_local_closed",
                   "cost_local_grid", "cost_offload_closed", "cost_offload_grid",
                   "rate_deviation", "status")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked(convert, ok, expected: str):
    """Argument type: convert(text), which must satisfy ok."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_seed = _checked(int, lambda n: n >= 0, "a non-negative integer")
_gain = _checked(float, lambda g: 0.0 <= g < math.inf,
                 "a finite, non-negative number")
_energy = _checked(float, lambda e: e >= 0.0, "a non-negative number")
_numbers = _checked(lambda text: [float(v) for v in text.split(",") if v.strip()],
                    lambda values: values and all(map(math.isfinite, values)),
                    "comma-separated finite numbers")


def _load_config(path: str | None) -> SystemParams:
    if path is None:
        return load_params("")
    with open(path) as fh:
        return load_params(fh.read())


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    """Write header and rows of values to out_dir/name, each cell str(value),
    as csv.writer writes text cells by default: joined by "," and lines ended
    by "\r\n".  A cell that csv.writer would quote (one holding ",", '"', "\r"
    or "\n") or a line without text raises ValueError.  Returns the path."""
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    text = "\r\n".join(lines) + "\r\n"
    commas = len(header) - 1 + sum(map(len, rows)) - len(rows)
    if ('"' in text or text.count(",") != commas
            or text.count("\r") != len(lines) or text.count("\n") != len(lines)
            or "" in lines):
        raise ValueError(f"{name}: a cell holds a comma, a quote or a line "
                         "break, or a line is empty")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


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
    explicit = args.gain_down is not None
    if (explicit != (args.gain_offload is not None)
            or not (explicit or args.seed is not None)):
        print("error: give both --gain-down and --gain-offload, or neither "
              "and --seed to draw the channels", file=sys.stderr)
        return EXIT_USAGE
    if explicit:
        gd, go = (np.full(args.repeat, g) for g in (args.gain_down,
                                                    args.gain_offload))
    else:
        gd, go = draw_gains(params, np.random.default_rng(args.seed), args.repeat)
    local, offload = solve_frames(params, gd, go)
    offloads = choose_modes(params, gd, local, offload)
    runs = _affordable(local, offload, offloads, args.e_stored)
    # the last draw is reported in full
    print(f"channel: eff_gain_down={_fmt(gd[-1])} gain_offload={_fmt(go[-1])}")
    _print_strategy("local  ", _frame_result(local, 0, -1))
    _print_strategy("offload", _frame_result(offload, 1, -1))
    if runs[-1]:
        i_o = int(offloads[-1])
        chosen = _frame_result(offload if i_o else local, i_o, -1)
        print(f"decision: {chosen.allocation.strategy.value} (i_o={i_o}), "
              f"cost {_fmt(chosen.cost)} J")
    else:
        reason = ("no feasible strategy"
                  if not (local.feasible[-1] or offload.feasible[-1])
                  else "cheapest cost exceeds stored energy")
        banked = harvest_only_result(params, float(gd[-1])).breakdown.e_harvest
        print(f"decision: harvest_only ({reason}); banked {_fmt(banked)} J")
    if args.repeat > 1:
        total = args.repeat
        n_offload = np.count_nonzero(runs & offloads)
        n_local = np.count_nonzero(runs) - n_offload
        print(f"over {total} draws: local={n_local/total:.3f} "
              f"offload={n_offload/total:.3f} "
              f"harvest_only={(total - n_local - n_offload)/total:.3f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = _load_config(args.config)
    axis = _AXES[args.axis]
    rows = sweep(params, axis, args.values, n_frames=args.frames,
                 n_trials=args.trials, master_seed=args.seed)
    path = _write_csv(args.out_dir, f"sweep_{axis.value}.csv", _SWEEP_COLUMNS,
                      [(axis.value, row.value, *astuple(row.averages),
                        row.outage, row.outage_ci) for row in rows])
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
                         master_seed=args.seed)
    path = _write_csv(args.out_dir, "frames.csv", _FRAMES_COLUMNS,
                      list(zip(range(result.n_frames), result.mean_storage,
                               result.outage_per_frame)))
    print(f"frames={result.n_frames} trials={result.n_trials} "
          f"outage={result.outage:.4f} (ci {result.outage_ci:.4f}) "
          f"mean_processed_cost={_fmt(result.mean_processed_cost)} J")
    print(f"wrote {path}")
    return EXIT_OK


# Consecutive infeasible draws after which verify gives up on a configuration.
MAX_REJECTED_DRAWS = 10_000


@dataclass(frozen=True)
class VerifyReport:
    lines: list     # summary, with one line per failing grid-checked pair
    rows: list      # verify.csv cell values, one tuple per grid-checked pair
    worst: dict     # largest deviation of each kind (see certify)
    failures: int   # failed checks


def certify(params: SystemParams, eff_gain_down: np.ndarray,
            gain_offload: np.ndarray, local: StrategyArrays,
            offload: StrategyArrays, grid_pairs: int) -> VerifyReport:
    """Check the optima that solve_frames claims, local and offload, on gain
    pairs under which both modes are feasible; prints nothing.

    Checks the root solver against bisection; the first grid_pairs claims
    against the grid searches (deviations in multiples of the tolerance),
    with their offload slot and power delivering the frame's bits; and the
    mode rule against the cost comparison on the remaining pairs, where a
    disagreement within rounding (allocator._rule_disagreements) is counted
    but passes.  Each grid search runs once, over all grid_pairs.
    """
    xs = np.concatenate([
        -1.0 / math.e + 10.0 ** np.linspace(-9, math.log10(1.0 / math.e), 200),
        10.0 ** np.linspace(-12, 6, 800),
    ])
    w = lambert_w0(xs)
    worst = dict(
        root_residual=float(np.max(np.abs(w * libm(math.exp, w) - xs)
                                   / np.maximum(1.0, np.abs(xs)))),
        root_gap=float(np.max(np.abs(w - bruteforce.bisect_lambert(xs)))))
    ok = worst["root_residual"] <= 1e-12 and worst["root_gap"] <= 1e-11
    failures = 0 if ok else 1
    lines = [f"root solver: residual {worst['root_residual']:.2e}, vs "
             f"bisection {worst['root_gap']:.2e} -> {'ok' if ok else 'FAIL'}"]

    spec = bruteforce.GridSpec.for_frame(params.frame_duration)
    grid = slice(grid_pairs)
    gd, go = eff_gain_down[grid], gain_offload[grid]
    cost_l, cost_o = local.cost[grid], offload.cost[grid]
    tau_o, p_o = offload.tau_o[grid], offload.p_o[grid]
    cost_grid = bruteforce.brute_local(params, gd, spec)[2]
    cost_grid_o = bruteforce.brute_offload(params, gd, go, spec)[2]
    tol_l = bruteforce.local_grid_tolerance(params, gd, spec)
    dev_l = np.abs(cost_l - cost_grid)
    tol_o = bruteforce.offload_grid_tolerance(params, gd, go, spec, tau_o)
    dev_o = np.abs(cost_o - cost_grid_o)
    delivered = offload_bits(params, go, p_o, tau_o)
    rate_dev = np.abs(delivered - params.bits_per_frame) / params.bits_per_frame
    passed = ((dev_l <= tol_l) & (cost_grid >= cost_l - tol_l)
              & (dev_o <= tol_o) & (cost_grid_o >= cost_o - tol_o)
              & (rate_dev <= 1e-9))
    # fmax skips NaN ratios, as a running max() starting from 0.0 does
    for kind, ratio in (("local", dev_l / np.maximum(tol_l, 1e-300)),
                        ("offload", dev_o / np.maximum(tol_o, 1e-300)),
                        ("rate", rate_dev)):
        worst[kind] = float(np.fmax.reduce(ratio, initial=0.0))
    failures += int(np.count_nonzero(~passed))
    for i in np.flatnonzero(~passed).tolist():
        lines.append("instance {}: gd={!r} go={!r} dev_local={!r} (tol {!r}) "
                     "dev_offload={!r} (tol {!r}) rate_dev={!r}".format(
                         i, *(c.item(i) for c in (gd, go, dev_l, tol_l, dev_o,
                                                  tol_o, rate_dev))))
    cells = zip(*(c.tolist() for c in (gd, go, cost_l, cost_grid, cost_o,
                                       cost_grid_o, rate_dev)))
    rows = [(i, *row, "pass" if ok else "fail")
            for i, (row, ok) in enumerate(zip(cells, passed.tolist()))]
    lines.append(f"grid check: {len(rows)} instances, worst local dev "
                 f"{worst['local']:.3f}x tol, worst offload dev "
                 f"{worst['offload']:.3f}x tol, worst rate dev "
                 f"{worst['rate']:.2e}")

    rest = np.arange(eff_gain_down.size) >= grid_pairs
    beyond, within = _rule_disagreements(params, eff_gain_down, local, offload,
                                         rest)
    n_rest = int(np.count_nonzero(rest))
    failures += 1 if beyond else 0
    lines.append(f"mode rule vs cost comparison: {n_rest - beyond}/{n_rest} "
                 f"agree, {within} of them to within rounding -> "
                 f"{'FAIL' if beyond else 'ok'}")
    return VerifyReport(lines=lines, rows=rows, worst=worst, failures=failures)


def cmd_verify(args) -> int:
    params = _load_config(args.config)
    rng = np.random.default_rng(args.seed)
    # The first --instances pairs of the stream under which both modes are
    # feasible go to the grid check, the next 1000 to the mode rule.  Each
    # block draws the pairs still needed, so none yields more.
    kept, needed, run = [], args.instances + 1000, 0
    while needed:
        u = rng.random((needed, 2))
        pairs = libm(partial(pow, 10.0), -8.0 + u * (5.0, 4.0))
        local, offload = solve_frames(params, pairs[:, 0], pairs[:, 1])
        ok = local.feasible & offload.feasible
        for feasible in ok.tolist():
            run = 0 if feasible else run + 1
            if run == MAX_REJECTED_DRAWS:
                raise ValueError(
                    f"no feasible instance found in {MAX_REJECTED_DRAWS} "
                    "draws: no sampled gain pair makes both local computing "
                    "and offloading feasible under this configuration")
        kept.append(pairs[ok])
        needed -= len(kept[-1])
    gd, go = np.concatenate(kept).T
    report = certify(params, gd, go, *solve_frames(params, gd, go),
                     args.instances)
    print("\n".join(report.lines))
    if args.out_dir:
        path = _write_csv(args.out_dir, "verify.csv", _VERIFY_COLUMNS,
                          report.rows)
        print(f"wrote {path}")
    if report.failures:
        print(f"verification FAILED ({report.failures} check(s))")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swiptfog", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key=value parameter file")
        p.add_argument("--seed", type=_seed, required=True,
                       help="master seed; all randomness derives from it")
        # accepted and ignored: the benchmark workloads still pass --jobs 1
        p.add_argument("--jobs", type=_positive_int, help=argparse.SUPPRESS)
        p.add_argument("--out-dir", default=".", help="directory for CSV output")

    p = sub.add_parser("allocate", help="solve and report a single frame")
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--gain-down", type=_gain,
                   help="explicit effective downlink gain (skip channel draw)")
    p.add_argument("--gain-offload", type=_gain,
                   help="explicit offload power gain (skip channel draw)")
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="number of channel draws to aggregate")
    p.add_argument("--e-stored", type=_energy, default=math.inf,
                   help="stored energy budget in joules (default: unlimited)")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("sweep", help="aggregate statistics along one axis")
    common(p)
    p.add_argument("--axis", choices=sorted(_AXES), required=True)
    p.add_argument("--values", type=_numbers, required=True,
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
    p.add_argument("--instances", type=_positive_int, default=100)
    p.set_defaults(func=cmd_verify)
    return parser


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _tune_heap() -> None:
    """Keep the kernel's temporaries on the heap, where the C library exports
    mallopt (glibc): blocks under 4 MiB are not mmapped, and up to 32 MiB of
    free heap top is kept, so the next call reuses those pages instead of
    faulting them in again.  Larger arrays are still mmapped, so large runs
    do not grow their peak RSS.  The trim threshold is raised only once the mmap
    threshold is accepted: without it, the kept heap would not be reused."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 4 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 32 << 20)


# Built by the first main call in a process, which also sets the heap
# thresholds; a library caller never runs either.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _tune_heap()
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
