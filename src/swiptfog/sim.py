"""Multi-frame energy-storage simulation and Monte-Carlo aggregation.

Storage dynamics: the device starts empty.  Each frame it draws a fresh
channel, solves both per-frame programs and, if the cheaper optimal cost is
covered by storage, runs it (storage moves by -cost, so surplus frames bank
energy); otherwise the whole frame harvests and the full-frame harvest is
banked.  A frame spent harvesting is an outage; the outage probability is the
mean of the outage indicator.

Execution: frames are simulated in one process as (trials x frames) arrays.
The trial seeds come from one array pass over all trials (_trial_states);
one generator, whose state is set for each trial in turn, draws each
trial's channel normals with one call into its row of one buffer of
TRIAL_CHUNK rows, and real arithmetic in place turns the buffer into the
chunk's gains, with the bits of per-trial draws.  Both programs
(allocator.solve_frames) are solved by array calls, and the storage
recursion, the only sequential step, loops over frames on contiguous
frames-major rows, one of all trials per frame: a comparison, a negation
and an add each.  Only run_trace builds FrameRecord objects.

Reproducibility (output version STREAM_VERSION): trial t of master seed m
draws from SeedSequence(m).spawn(n)[t], whose PCG64 state _trial_states
computes without numpy's SeedSequence, so results do not depend on
chunking, more trials extend a shorter run, and run_trace(seed) is trial 0
of seed.  Aggregates use exact summation (math.fsum), so they do not
depend on trial order either.  Version 3 keeps version 2's trial seeds and
normals and changes only the kernel's arithmetic: gains are formed with
products and np.sqrt, and the kernel's exp, log2 and 2**u - 1 come from
_ieee, built from IEEE-754 basic operations, instead of the C library.
"""

import math
import operator
from dataclasses import dataclass
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
from .params import SystemParams, with_overrides

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

# The channel draw layout (channel module), the trial seeds (_trial_states)
# and the kernel's arithmetic.  Version 1 seeded trial t with master_seed
# XOR t and drew frame by frame; version 2 evaluated the kernel's
# transcendentals through the C library.
STREAM_VERSION = 3

# Trials per normals buffer in monte_carlo; it bounds that buffer's size.
TRIAL_CHUNK = 32

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# default 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """value as SeedSequence takes an integer: 32-bit words, least
    significant first, at least one."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _seed_words(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """SeedSequence(...).generate_state(n_words) of the assembled entropy
    words, element-wise over uint32 arrays (one element per sequence)."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append(value ^ (value >> np.uint32(16)))
    return words


def _trial_states(master_seed: int, n_trials: int, first: int = 0) -> list[dict]:
    """PCG64 states of trials first .. first + n_trials - 1 of master seed
    master_seed, each PCG64(SeedSequence(master_seed, spawn_key=(t,))).state:
    SeedSequence's hash on arrays over all trials at once, then PCG64's
    seeding of (state, inc) as 128-bit integers.  Trial indices are below
    2**32, one spawn-key word each."""
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if first < 0 or first + n_trials > 1 << 32:
        raise ValueError("trial indices must lie in [0, 2**32)")
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(1, w, dtype=np.uint32) for w in run]
    entropy.append(np.arange(first, first + n_trials, dtype=np.uint32))
    words = _seed_words(entropy, 8)
    # generate_state(4, np.uint64): little-endian pairs of 32-bit words
    w64 = [(words[2 * k].astype(np.uint64)
            | words[2 * k + 1].astype(np.uint64) << np.uint64(32)).tolist()
           for k in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _trial_gains(params: SystemParams, master_seed: int, n_trials: int,
                 n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink and offload power gains of trials 0 .. n_trials - 1
    of master_seed, each of shape (n_trials, n_frames).  One generator, set
    to each trial's state in turn, fills the trial's row of one normals
    buffer of TRIAL_CHUNK rows with the normals draw_gains would draw from
    it; the buffer is turned into gains in place."""
    states = _trial_states(master_seed, n_trials)
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    normals = np.empty((min(TRIAL_CHUNK, n_trials), n_frames,
                        params.n_antennas + 1, 2))
    gd, go = np.empty((n_trials, n_frames)), np.empty((n_trials, n_frames))
    for start in range(0, n_trials, TRIAL_CHUNK):
        stop = min(start + TRIAL_CHUNK, n_trials)
        rows = normals[:stop - start]
        for row, state in zip(rows, states[start:stop]):
            bitgen.state = state
            rng.standard_normal(out=row)
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
    elsewhere, added in one step, as x - c == x + (-c) in IEEE arithmetic."""
    local, offload = solve_frames(params, eff_gain_down, gain_offload)
    offloads = choose_modes(params, eff_gain_down, local, offload)
    cost = np.where(offloads, offload.cost, local.cost)
    n_frames = cost.shape[1]
    cost_rows = np.ascontiguousarray(cost.T)
    # each frame's row of full-frame harvests turns into its change of level
    step = np.ascontiguousarray((params.eh_efficiency * (
        eff_gain_down + params.noise_dev) * params.frame_duration).T)
    storage = np.zeros((n_frames + 1, cost.shape[0]))
    processed = np.empty(cost_rows.shape, dtype=bool)
    for f in range(n_frames):
        runs = np.less_equal(cost_rows[f], storage[f], out=processed[f])
        np.negative(cost_rows[f], out=step[f], where=runs)
        np.add(storage[f], step[f], out=storage[f + 1])
    return _Frames(local=local, offload=offload, offloads=offloads, cost=cost,
                   processed=processed.T, storage=storage[:-1].T)


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


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    """Exact mean of values[mask]; NaN when the mask selects nothing."""
    count = int(np.count_nonzero(mask))
    return math.fsum(values[mask].tolist()) / count if count else math.nan


def _monte_carlo(params: SystemParams, n_frames: int, n_trials: int,
                 master_seed: int) -> tuple[MonteCarloResult, _Frames]:
    """monte_carlo's result and the simulated frames it aggregates."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    frames = _simulate(params, *_trial_gains(params, master_seed, n_trials,
                                             n_frames))

    mean_storage = tuple(math.fsum(column) / n_trials
                         for column in frames.storage.T.tolist())
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
    configs = [with_overrides(params, **{axis.value: value}) for value in values]
    rows = []
    for value, p in zip(values, configs):
        mc, frames = _monte_carlo(p, n_frames, n_trials, master_seed)
        rows.append(SweepRow(axis=axis, value=value,
                             averages=_strategy_averages(frames),
                             outage=mc.outage, outage_ci=mc.outage_ci))
    return rows

