"""Multi-frame energy-storage simulation and Monte-Carlo aggregation.

Storage dynamics: the device starts empty.  Each frame it draws a fresh
channel, solves both per-frame programs and, if the cheaper optimal cost is
covered by storage, runs it (storage moves by -cost, so surplus frames bank
energy); otherwise the whole frame harvests and the full-frame harvest is
banked.  A frame spent harvesting is an outage; the outage probability is the
mean of the outage indicator.

Execution: frames are simulated in one process as (trials x frames) arrays.
One generator draws every trial's channel normals, a chunk of TRIAL_CHUNK
trials per call into one reused buffer, and real arithmetic in place turns
the buffer into the chunk's gains.  Both programs (allocator.solve_frames)
are solved by array calls, and the storage recursion, the only sequential
step, loops over frames on contiguous frames-major rows, one of all trials
per frame: a comparison, a negation and an add each.  Only run_trace builds
FrameRecord objects.

Reproducibility (output version STREAM_VERSION): the frames of all trials of
master seed m are consecutive runs of one np.random.default_rng(m) stream,
trial t holding frames t * n_frames onward, so results do not depend on
chunking, more trials extend a shorter run, and run_trace(seed) is trial 0
of seed.  Trial t >= 1 depends on n_frames, and no trial is drawn without
the trials before it.  Aggregates use exact summation (math.fsum), so they
do not depend on trial order either.  Gains are formed with products and
np.sqrt, and the kernel's exp, log2 and 2**u - 1 come from _ieee, built
from IEEE-754 basic operations, not from the C library.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .allocator import (
    Allocation,
    Strategy,
    StrategyArrays,
    _frame_result,
    choose_modes,
    harvest_only_result,
    solve_frames,
)
from .channel import _to_amplitudes, _to_gains
from .params import SystemParams

# The scalar per-frame path stays importable from this module: the traced
# benchmark run (perfbench/spans.py) wraps these module-level names.
from .allocator import decide, evaluate_strategies  # noqa: F401
from .channel import realize_channels  # noqa: F401

__all__ = [
    "FrameRecord",
    "SimTrace",
    "MonteCarloResult",
    "StrategyAverages",
    "SweepAxis",
    "SweepRow",
    "STREAM_VERSION",
    "run_trace",
    "monte_carlo",
    "sweep",
]

# The channel draw layout (channel module), the trials' draws (_trial_gains)
# and the kernel's arithmetic.  Version 1 seeded trial t with master_seed
# XOR t and drew frame by frame; versions 2 and 3 drew trial t from
# SeedSequence(master_seed).spawn(n)[t], version 2 evaluating the kernel's
# transcendentals through the C library.
STREAM_VERSION = 4

# Trials per normals buffer in monte_carlo; it bounds that buffer's size.
TRIAL_CHUNK = 32


def _trial_gains(params: SystemParams, master_seed: int, n_trials: int,
                 n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink and offload power gains of trials 0 .. n_trials - 1
    of master_seed, each of shape (n_trials, n_frames): the gains of
    draw_gains(params, default_rng(master_seed), n_trials * n_frames), trial
    t holding frames t * n_frames onward.  Each chunk of TRIAL_CHUNK trials
    is one standard_normal call into one normals buffer, which is turned
    into gains in place."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    rng = np.random.default_rng(master_seed)
    normals = np.empty((min(TRIAL_CHUNK, n_trials), n_frames,
                        params.n_antennas + 1, 2))
    gd, go = np.empty((n_trials, n_frames)), np.empty((n_trials, n_frames))
    for start in range(0, n_trials, TRIAL_CHUNK):
        stop = min(start + TRIAL_CHUNK, n_trials)
        rows = rng.standard_normal(out=normals[:stop - start])
        _to_gains(params, _to_amplitudes(params, rows), gd[start:stop],
                  go[start:stop])
    return gd, go


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
    (rows) over its frames (columns), starting empty.  The recursion runs
    on contiguous frames-major rows, one row of all trials per frame: the
    level moves by -cost where the frame runs and by the full-frame harvest
    elsewhere, added in one step, as x - c == x + (-c) in IEEE arithmetic.
    A level that overflows stays inf or turns NaN for good, so the last
    row alone tells whether any trial left the float range."""
    local, offload = solve_frames(params, eff_gain_down, gain_offload)
    offloads = choose_modes(params, local, offload)
    cost_rows = np.ascontiguousarray(np.where(offloads, offload.cost, local.cost).T)
    n_frames, n_trials = cost_rows.shape
    storage = np.zeros((n_frames + 1, n_trials))
    processed = np.empty(cost_rows.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # each frame's row of full-frame harvests turns into its change of level
        step = np.multiply(local.harvest_rate.T, params.frame_duration, order="C")
        for f in range(n_frames):
            runs = np.less_equal(cost_rows[f], storage[f], out=processed[f])
            np.negative(cost_rows[f], out=step[f], where=runs)
            np.add(storage[f], step[f], out=storage[f + 1])
    if not np.isfinite(storage[-1]).all():
        raise ValueError("the stored energy overflows: the configuration's "
                         "harvested energies are too large")
    return _Frames(local=local, offload=offload, offloads=offloads,
                   cost=cost_rows.T, processed=processed.T, storage=storage[:-1].T)


def run_trace(params: SystemParams, n_frames: int, seed: int) -> SimTrace:
    """One storage trajectory: empty start, fresh channel every frame.  Its
    channels are those of trial 0 of monte_carlo with master seed seed."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    gd, go = _trial_gains(params, seed, 1, n_frames)
    frames = _simulate(params, gd, go)
    records = []
    for i, level in enumerate(frames.storage[0].tolist()):
        if frames.processed[0, i]:
            i_o = int(frames.offloads[0, i])
            result = _frame_result(frames.offload if i_o else frames.local,
                                   i_o, (0, i))
        else:
            result = harvest_only_result(params, float(gd[0, i]))
        alloc = result.allocation
        records.append(FrameRecord(
            frame_index=i, e_stored_begin=level,
            i_s=0 if frames.processed[0, i] else 1, strategy=alloc.strategy,
            cost=result.cost, e_harvest=result.breakdown.e_harvest,
            allocation=alloc))
    processed = [r.cost for r in records if r.i_s == 0]
    return SimTrace(
        params=params, seed=seed, records=tuple(records),
        mean_cost=math.fsum(processed) / len(processed) if processed else math.nan,
        mean_harvest=math.fsum(r.e_harvest for r in records) / n_frames,
        outage=math.fsum(r.i_s for r in records) / n_frames)


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


def _ci_halfwidth(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return math.nan
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) * (v - mean) for v in values) / (n - 1)
    return 1.96 * math.sqrt(var / n)


def _masked_mean(values: np.ndarray, mask=...) -> float:
    """Exact mean of values[mask] (by default all of 1-D values), one gather
    that fsum reads through a memoryview, with no list; NaN if it is empty."""
    values = values[mask]
    return math.fsum(memoryview(values)) / values.size if values.size else math.nan


def _monte_carlo(params: SystemParams, n_frames: int, n_trials: int,
                 master_seed: int) -> tuple[MonteCarloResult, _Frames]:
    """monte_carlo's result and the simulated frames it aggregates."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    frames = _simulate(params, *_trial_gains(params, master_seed, n_trials,
                                             n_frames))

    mean_storage = tuple(map(_masked_mean, frames.storage.T))  # contiguous rows
    harvested = ~frames.processed
    outage_per_frame = tuple(n / n_trials for n in harvested.sum(axis=0).tolist())
    per_trial_outage = [n / n_frames for n in harvested.sum(axis=1).tolist()]
    return MonteCarloResult(
        params=params, n_frames=n_frames, n_trials=n_trials,
        master_seed=master_seed, mean_storage=mean_storage,
        outage_per_frame=outage_per_frame,
        outage=math.fsum(per_trial_outage) / n_trials,
        outage_ci=_ci_halfwidth(per_trial_outage),
        mean_processed_cost=_masked_mean(frames.cost, frames.processed)), frames


def monte_carlo(params: SystemParams, n_frames: int, n_trials: int,
                master_seed: int) -> MonteCarloResult:
    """Average n_trials independent traces."""
    return _monte_carlo(params, n_frames, n_trials, master_seed)[0]


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


def _strategy_averages(frames: _Frames) -> StrategyAverages:
    """Per-mode means over the frames where the mode is feasible; mode shares."""
    local, offload, processed = frames.local, frames.offload, frames.processed
    n_all = processed.size
    n_offloaded = int(np.count_nonzero(processed & frames.offloads))
    n_processed = int(np.count_nonzero(processed))
    return StrategyAverages(
        mean_cost_local=_masked_mean(local.cost, local.feasible),
        mean_cost_offload=_masked_mean(offload.cost, offload.feasible),
        mean_e_decode=_masked_mean(local.e_decode,  # shared by both modes
                                   local.feasible | offload.feasible),
        mean_e_compute=_masked_mean(local.e_compute, local.feasible),
        mean_e_offload=_masked_mean(offload.e_offload, offload.feasible),
        mean_e_harvest_local=_masked_mean(local.e_harvest, local.feasible),
        mean_e_harvest_offload=_masked_mean(offload.e_harvest, offload.feasible),
        frac_local=(n_processed - n_offloaded) / n_all,
        frac_offload=n_offloaded / n_all,
        frac_harvest_only=(n_all - n_processed) / n_all)


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
          n_trials: int, master_seed: int) -> list[SweepRow]:
    """Outage and per-strategy means at each axis value (same seeds per
    value, so columns are comparable across the sweep).  Every value's
    parameters are validated before any value is simulated."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [replace(params, **{axis.value: value}) for value in values]
    rows = []
    for value, p in zip(values, configs):
        mc, frames = _monte_carlo(p, n_frames, n_trials, master_seed)
        rows.append(SweepRow(axis=axis, value=value,
                             averages=_strategy_averages(frames),
                             outage=mc.outage, outage_ci=mc.outage_ci))
    return rows

