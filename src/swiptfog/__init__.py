"""Energy-optimal frame allocation for an RF-harvesting device that decodes
downlink data and either computes on it locally or offloads it to a nearby
fog server, plus multi-frame storage simulation and brute-force verification
of every closed-form optimum."""

from .allocator import (
    Allocation,
    Strategy,
    StrategyResult,
    decide,
    decision_inequality,
    evaluate_strategies,
    lambert_w0,
    solve_local,
    solve_offload,
)
from .bruteforce import (
    GridSpec,
    bisect_lambert,
    brute_local,
    brute_offload,
    local_grid_tolerance,
    offload_grid_tolerance,
)
from .channel import (
    ChannelRealization,
    conjugate_beamform,
    draw_rician,
    pathloss_db,
    realize_channels,
)
from .energy import (
    EnergyBreakdown,
    compute_energy,
    decode_energy,
    frame_cost,
    harvested_energy,
    offload_bits,
    throughput,
)
from .params import SystemParams, db_to_linear, dumps_params, load_params
from .sim import (
    FrameRecord,
    MonteCarloResult,
    SimTrace,
    SweepAxis,
    SweepRow,
    monte_carlo,
    run_trace,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "ChannelRealization", "EnergyBreakdown", "FrameRecord",
    "GridSpec", "MonteCarloResult", "SimTrace", "Strategy", "StrategyResult",
    "SweepAxis", "SweepRow", "SystemParams", "bisect_lambert", "brute_local",
    "brute_offload", "compute_energy", "conjugate_beamform", "db_to_linear",
    "decide", "decision_inequality", "decode_energy", "draw_rician",
    "dumps_params", "evaluate_strategies", "frame_cost", "harvested_energy",
    "lambert_w0", "load_params", "local_grid_tolerance", "monte_carlo",
    "offload_bits", "offload_grid_tolerance", "pathloss_db",
    "realize_channels", "run_trace", "solve_local", "solve_offload", "sweep",
    "throughput",
]
