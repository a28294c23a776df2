from functools import partial

import numpy as np
import pytest

from swiptfog import SystemParams, load_params
from swiptfog._libm import libm
from swiptfog.allocator import solve_frames


@pytest.fixture
def params() -> SystemParams:
    return load_params("")


# Two valid configurations, each with a gain pair under which both modes are
# feasible and the local decode slot spans only two to five cells of the
# oracle's 1e-4 T grid: the compute slot, which scales with the decoded bits,
# inherits the decode slot's rounding to the grid.  Under the second, no grid
# cell is feasible at all; the feasible decode interval is narrower than a cell.
_FEW_CELL_COMMON = dict(n_antennas=1, decode_energy_per_bit=9.991220865059318e-10,
                        immaturity_factor=100.0, fanout=1.0,
                        thermal_noise_density=8.217237442651788e-21)
FEW_CELL_DECODE = [
    (SystemParams(**_FEW_CELL_COMMON, p_transmit=2.1358877806317444,
                  bw_downlink=8700778.280990314, bw_offload=938602.7729998252,
                  noise_dev=2.6929096027133064e-10,
                  noise_server=6.108609431128086e-11,
                  eh_efficiency=0.9490681757648523, rate_min=57959.68991448907,
                  frame_duration=0.36025966827784983,
                  ops_per_bit=85510.18688933871,
                  dev_ops_per_sec=5127750042.025527,
                  activity_factor=0.25609497775602563),
     (10.0 ** -5.480659568940056, 10.0 ** -6.383819408724488)),
    (SystemParams(**_FEW_CELL_COMMON, bw_downlink=8700253.0, bw_offload=100000.0,
                  noise_dev=6.108609431128086e-11,
                  noise_server=2.6929096027133064e-10, eh_efficiency=1.0,
                  rate_min=41701.0, frame_duration=0.375, ops_per_bit=23382.0,
                  dev_ops_per_sec=978584586.0, activity_factor=0.5),
     (1e-3, 1e-4)),
]


def random_gain_pairs(rng: np.random.Generator, n: int, params: SystemParams,
                      require_both: bool = True):
    """Log-uniform (downlink gain, offload gain) pairs, filtered to instances
    where the requested strategies are feasible.

    Each block draws the pairs still needed and solves them in one kernel
    call; a pair's two uniforms come in the order of two rng.uniform calls,
    and the last block is all kept, so the pairs and the generator's end
    state are those of drawing and filtering one pair at a time.
    """
    kept, needed = [], n
    while needed:
        pairs = libm(partial(pow, 10.0),
                     -8.0 + rng.random((needed, 2)) * (5.0, 4.0))
        local, offload = solve_frames(params, pairs[:, 0], pairs[:, 1])
        ok = (local.feasible & offload.feasible if require_both
              else local.feasible | offload.feasible)
        kept += map(tuple, pairs[ok].tolist())
        needed = n - len(kept)
    return kept
