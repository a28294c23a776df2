"""Multi-frame energy-storage simulation and Monte-Carlo aggregation.

Storage dynamics: the device starts empty.  Each frame it draws a fresh
channel, solves both per-frame programs and, if the cheaper optimal cost is
covered by storage, runs it (storage moves by -cost, so surplus frames bank
energy); otherwise the whole frame harvests and the full-frame harvest is
banked.  A frame spent harvesting is an outage; the outage probability is the
mean of the outage indicator.

Execution: frames are simulated as (trials x frames) arrays.  Each trial
draws its channels frame by frame from its own generator, the one loop that
runs per frame in Python; both programs are then solved for every frame at
once (allocator.solve_frames), and the storage recursion, the only
sequential step, loops over frames with all trials in one array.  Per-frame
FrameRecord objects are built only by run_trace.

Reproducibility: every trial draws from its own generator seeded with
``master_seed XOR trial_index``, so results do not depend on scheduling or
the worker count.  With jobs > 1 the channel draws are sharded in chunks of
TRIAL_CHUNK trials, a fixed size; workers return only the gain arrays, and
solving, the recursion and aggregation run in the calling process.
Aggregates use exact summation (math.fsum), so they do not depend on trial
order either.
"""

import math
from dataclasses import dataclass
from enum import Enum
from multiprocessing import Pool

import numpy as np

from .allocator import (
    Allocation,
    Strategy,
    StrategyArrays,
    choose_modes,
    decide,
    harvest_only_result,
    solve_frames,
)
from .channel import ChannelRealization, draw_gains
from .energy import harvested_energy
from .params import SystemParams, with_overrides

# The scalar per-frame path stays importable from this module: the traced
# benchmark run (perfbench/spans.py) wraps these module-level names.
from .allocator import evaluate_strategies  # noqa: F401
from .channel import realize_channels  # noqa: F401

__all__ = [
    "FrameRecord",
    "SimTrace",
    "MonteCarloResult",
    "StrategyAverages",
    "SweepAxis",
    "SweepRow",
    "step_frame",
    "run_trace",
    "monte_carlo",
    "sweep",
    "trace_records_csv_rows",
    "TRACE_CSV_COLUMNS",
    "SWEEP_CSV_COLUMNS",
    "FRAME_STATS_CSV_COLUMNS",
]

# Trials per unit of work when monte_carlo shards its channel draws.
TRIAL_CHUNK = 32


@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    e_stored_begin: float   # J, at the start of the frame
    i_s: int                # 1 when the frame is spent harvesting
    strategy: Strategy
    cost: float             # J, optimal cost of the executed mode
    e_harvest: float        # J, harvested during this frame
    allocation: Allocation


@dataclass(frozen=True)
class SimTrace:
    params: SystemParams
    seed: int
    records: tuple
    mean_cost: float      # over processed frames; NaN if none
    mean_harvest: float   # over all frames
    outage: float         # mean of the harvest-only indicator

    @classmethod
    def from_records(cls, params: SystemParams, seed: int,
                     records: list) -> "SimTrace":
        processed = [r.cost for r in records if r.i_s == 0]
        mean_cost = math.fsum(processed) / len(processed) if processed else math.nan
        mean_harvest = math.fsum(r.e_harvest for r in records) / len(records)
        outage = math.fsum(r.i_s for r in records) / len(records)
        return cls(params=params, seed=seed, records=tuple(records),
                   mean_cost=mean_cost, mean_harvest=mean_harvest, outage=outage)


def step_frame(params: SystemParams, channel: ChannelRealization,
               e_stored: float, frame_index: int = 0) -> tuple[FrameRecord, float]:
    """Advance the storage by one frame; returns the record and next level.

    The scalar reference for one frame of the array simulation."""
    if e_stored < 0.0:
        raise ValueError("e_stored must be non-negative")
    alloc, brk = decide(params, channel.eff_gain_down, channel.gain_offload,
                        e_stored)
    i_s = 1 if alloc.strategy is Strategy.HARVEST_ONLY else 0
    if i_s:
        e_next = e_stored + brk.e_harvest
    else:
        e_next = e_stored - brk.cost
    record = FrameRecord(frame_index=frame_index, e_stored_begin=e_stored,
                         i_s=i_s, strategy=alloc.strategy, cost=brk.cost,
                         e_harvest=brk.e_harvest, allocation=alloc)
    return record, e_next


@dataclass(frozen=True)
class _Frames:
    """Simulated (trials x frames) arrays."""
    local: StrategyArrays
    offload: StrategyArrays
    offloads: np.ndarray    # offloading is the cheaper feasible mode
    cost: np.ndarray        # J, of that mode; inf where nothing is feasible
    processed: np.ndarray   # the frame ran its mode (i_s == 0)
    storage: np.ndarray     # J, at the start of the frame


def _simulate(params: SystemParams, eff_gain_down: np.ndarray,
              gain_offload: np.ndarray) -> _Frames:
    """Solve every frame, then run the storage recursion of every trial
    (rows) over its frames (columns), starting empty."""
    local, offload = solve_frames(params, eff_gain_down, gain_offload)
    offloads = choose_modes(params, eff_gain_down, local, offload)
    cost = np.where(offloads, offload.cost, local.cost)
    harvest = harvested_energy(params, eff_gain_down, params.frame_duration)
    storage = np.empty(cost.shape)
    processed = np.empty(cost.shape, dtype=bool)
    level = np.zeros(cost.shape[0])
    for f in range(cost.shape[1]):
        storage[:, f] = level
        processed[:, f] = runs = cost[:, f] <= level
        level = np.where(runs, level - cost[:, f], level + harvest[:, f])
    return _Frames(local=local, offload=offload, offloads=offloads, cost=cost,
                   processed=processed, storage=storage)


def _trace_records(params: SystemParams, eff_gain_down: np.ndarray,
                   frames: _Frames) -> list:
    """FrameRecords of the first simulated trial."""
    modes = ((frames.local, Strategy.LOCAL_COMPUTE, 0),
             (frames.offload, Strategy.OFFLOAD, 1))
    records = []
    for i, level in enumerate(frames.storage[0].tolist()):
        i_s = 0 if frames.processed[0, i] else 1
        if i_s:
            fallback = harvest_only_result(params, float(eff_gain_down[0, i]))
            alloc = fallback.allocation
            cost, e_harvest = fallback.cost, fallback.breakdown.e_harvest
        else:
            sol, strategy, i_o = modes[int(frames.offloads[0, i])]
            alloc = Allocation(
                tau_e=float(sol.tau_e[0, i]), tau_d=float(sol.tau_d[0, i]),
                tau_c=float(sol.tau_c[0, i]), tau_o=float(sol.tau_o[0, i]),
                p_o=float(sol.p_o[0, i]), i_o=i_o, strategy=strategy)
            cost, e_harvest = float(sol.cost[0, i]), float(sol.e_harvest[0, i])
        records.append(FrameRecord(
            frame_index=i, e_stored_begin=level, i_s=i_s,
            strategy=alloc.strategy, cost=cost, e_harvest=e_harvest,
            allocation=alloc))
    return records


def run_trace(params: SystemParams, n_frames: int, seed: int) -> SimTrace:
    """One storage trajectory: empty start, fresh channel every frame."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    gd, go = (g[np.newaxis] for g in
              draw_gains(params, np.random.default_rng(seed), n_frames))
    frames = _simulate(params, gd, go)
    return SimTrace.from_records(params, seed, _trace_records(params, gd, frames))


@dataclass(frozen=True)
class StrategyAverages:
    mean_cost_local: float
    mean_cost_offload: float
    mean_e_decode: float
    mean_e_compute: float
    mean_e_offload: float
    mean_e_harvest_local: float
    mean_e_harvest_offload: float
    frac_local: float
    frac_offload: float
    frac_harvest_only: float
    n_local_feasible: int
    n_offload_feasible: int


@dataclass(frozen=True)
class MonteCarloResult:
    params: SystemParams
    n_frames: int
    n_trials: int
    master_seed: int
    mean_storage: tuple       # per-frame mean of the start-of-frame level
    outage_per_frame: tuple
    outage: float
    outage_ci: float          # 1.96 * stderr over trials (normal approx.)
    mean_processed_cost: float
    mean_processed_cost_ci: float
    averages: StrategyAverages


def _draw_trials(task) -> tuple[np.ndarray, np.ndarray]:
    """(trials x frames) gain arrays for one chunk of trial seeds."""
    params, n_frames, seeds = task
    gains = [draw_gains(params, np.random.default_rng(seed), n_frames)
             for seed in seeds]
    return (np.array([gd for gd, _ in gains]),
            np.array([go for _, go in gains]))


def _ci_halfwidth(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return math.nan
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * math.sqrt(var / n)


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    """Exact mean of values[mask]; NaN when the mask selects nothing."""
    count = int(np.count_nonzero(mask))
    return math.fsum(values[mask].tolist()) / count if count else math.nan


def monte_carlo(params: SystemParams, n_frames: int, n_trials: int,
                master_seed: int, jobs: int = 1) -> MonteCarloResult:
    """Average n_trials independent traces; identical results for any jobs."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    seeds = [master_seed ^ t for t in range(n_trials)]
    tasks = [(params, n_frames, seeds[i:i + TRIAL_CHUNK])
             for i in range(0, n_trials, TRIAL_CHUNK)]
    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=min(jobs, len(tasks))) as pool:
            chunks = pool.map(_draw_trials, tasks)
    else:
        chunks = [_draw_trials(task) for task in tasks]
    gd = np.concatenate([c[0] for c in chunks])
    go = np.concatenate([c[1] for c in chunks])
    frames = _simulate(params, gd, go)
    local, offload, processed = frames.local, frames.offload, frames.processed

    mean_storage = tuple(math.fsum(column) / n_trials
                         for column in frames.storage.T.tolist())
    harvested = ~processed
    outage_per_frame = tuple(n / n_trials for n in harvested.sum(axis=0).tolist())
    per_trial_outage = [n / n_frames for n in harvested.sum(axis=1).tolist()]
    outage = math.fsum(per_trial_outage) / n_trials

    per_trial_cost = [math.fsum(c[m].tolist()) / np.count_nonzero(m)
                      for c, m in zip(frames.cost, processed) if m.any()]
    n_all = n_frames * n_trials
    n_offloaded = int(np.count_nonzero(processed & frames.offloads))
    n_processed = int(np.count_nonzero(processed))
    averages = StrategyAverages(
        mean_cost_local=_masked_mean(local.cost, local.feasible),
        mean_cost_offload=_masked_mean(offload.cost, offload.feasible),
        mean_e_decode=_masked_mean(np.where(local.feasible, local.e_decode,
                                            offload.e_decode),
                                   local.feasible | offload.feasible),
        mean_e_compute=_masked_mean(local.e_compute, local.feasible),
        mean_e_offload=_masked_mean(offload.e_offload, offload.feasible),
        mean_e_harvest_local=_masked_mean(local.e_harvest, local.feasible),
        mean_e_harvest_offload=_masked_mean(offload.e_harvest, offload.feasible),
        frac_local=(n_processed - n_offloaded) / n_all,
        frac_offload=n_offloaded / n_all,
        frac_harvest_only=(n_all - n_processed) / n_all,
        n_local_feasible=int(np.count_nonzero(local.feasible)),
        n_offload_feasible=int(np.count_nonzero(offload.feasible)),
    )
    return MonteCarloResult(
        params=params, n_frames=n_frames, n_trials=n_trials,
        master_seed=master_seed, mean_storage=mean_storage,
        outage_per_frame=outage_per_frame, outage=outage,
        outage_ci=_ci_halfwidth(per_trial_outage),
        mean_processed_cost=_masked_mean(frames.cost, processed),
        mean_processed_cost_ci=_ci_halfwidth(per_trial_cost),
        averages=averages)


class SweepAxis(Enum):
    OPS_PER_BIT = "ops_per_bit"
    DIST_AP_DEV = "dist_ap_dev"
    DIST_DEV_SERVER = "dist_dev_server"


@dataclass(frozen=True)
class SweepRow:
    axis: SweepAxis
    value: float
    averages: StrategyAverages
    outage: float
    outage_ci: float


def sweep(params: SystemParams, axis: SweepAxis, values, n_frames: int,
          n_trials: int, master_seed: int, jobs: int = 1) -> list[SweepRow]:
    """Monte-Carlo aggregates at each axis value (same seeds per value, so
    columns are comparable across the sweep)."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        p = with_overrides(params, **{axis.value: value})
        mc = monte_carlo(p, n_frames, n_trials, master_seed, jobs=jobs)
        rows.append(SweepRow(axis=axis, value=value, averages=mc.averages,
                             outage=mc.outage, outage_ci=mc.outage_ci))
    return rows


TRACE_CSV_COLUMNS = ("frame", "e_stored_begin", "i_s", "strategy", "cost",
                     "e_harvest", "tau_e", "tau_d", "tau_c", "tau_o", "p_o")

FRAME_STATS_CSV_COLUMNS = ("frame", "mean_storage", "outage_rate")

SWEEP_CSV_COLUMNS = ("axis", "value", "mean_cost_local", "mean_cost_offload",
                     "mean_e_decode", "mean_e_compute", "mean_e_offload",
                     "mean_e_harvest_local", "mean_e_harvest_offload",
                     "frac_local", "frac_offload", "frac_harvest_only",
                     "outage", "outage_ci")


def trace_records_csv_rows(trace: SimTrace) -> list[list[str]]:
    rows = []
    for r in trace.records:
        a = r.allocation
        rows.append([str(r.frame_index), repr(r.e_stored_begin), str(r.i_s),
                     r.strategy.value, repr(r.cost), repr(r.e_harvest),
                     repr(a.tau_e), repr(a.tau_d), repr(a.tau_c),
                     repr(a.tau_o), repr(a.p_o)])
    return rows


def sweep_csv_rows(rows: list[SweepRow]) -> list[list[str]]:
    out = []
    for row in rows:
        a = row.averages
        out.append([row.axis.value, repr(row.value),
                    repr(a.mean_cost_local), repr(a.mean_cost_offload),
                    repr(a.mean_e_decode), repr(a.mean_e_compute),
                    repr(a.mean_e_offload), repr(a.mean_e_harvest_local),
                    repr(a.mean_e_harvest_offload), repr(a.frac_local),
                    repr(a.frac_offload), repr(a.frac_harvest_only),
                    repr(row.outage), repr(row.outage_ci)])
    return out
