"""Grid-search verifiers for the closed-form per-frame optima.

These deliberately avoid the closed-form solutions: each program's feasible
set is swept on a uniform time grid and the best cell is optionally tightened
by golden-section passes.  They exist to certify the allocator, so they trade
speed for transparency.

Reduction lemmas (both verified numerically in the test suite):

* local program: for a fixed decode slot the objective is strictly increasing
  in the compute slot (its coefficient is the positive harvest rate), so the
  cheapest grid point for a given decode slot uses the smallest grid compute
  slot satisfying the op-count constraint.  The scan therefore walks the
  decode axis and derives the compute cell, which equals the full 2-D grid
  minimum (the test suite cross-checks this with 2-D scans on coarse grids).

* offload program: the objective is strictly increasing in the transmit
  energy, so the energy is pinned to the smallest value meeting the bit
  constraint, leaving a 1-D convex curve over the offload slot (cross-checked
  the same way).  The curve is a pair's own line plus a times one convex
  curve that all pairs share, so one search over that curve's slopes puts a
  few-cell window on each pair's grid minimum; a window whose minimum is not
  certified against rounding falls back to sweeping the pair's whole axis.

Grid-gap bounds: the returned minimum can sit above the true optimum by at
most (Lipschitz constant) x (cell size) per axis.  ``local_grid_tolerance``
and ``offload_grid_tolerance`` evaluate those bounds for a given instance and
grid, including the refinement shrink factor 0.618**refine_iters.
"""

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._libm import libm
from .params import SystemParams

__all__ = [
    "GridSpec",
    "brute_local",
    "brute_offload",
    "bisect_lambert",
    "local_grid_tolerance",
    "offload_grid_tolerance",
]

log = logging.getLogger(__name__)

_INV_E = math.exp(-1.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EXP2_CAP = 900.0  # 2**x overflows past ~1023; treat beyond-cap as unaffordable


@dataclass(frozen=True)
class GridSpec:
    resolution: float = 1e-4        # s, grid step on every time axis
    refine_iters: int = 60          # golden-section passes inside the best cell

    def __post_init__(self):
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")

    @classmethod
    def for_frame(cls, frame_duration: float) -> "GridSpec":
        return cls(resolution=1e-4 * frame_duration)


def _per_op_energy(params: SystemParams) -> float:
    return (params.fanout * params.activity_factor * params.immaturity_factor
            * params.thermal_noise_density * math.log(2.0))


def _log2_snr(params: SystemParams, eff_gain_down):
    """log2(1 + SNR) of the downlink, through the C library; element-wise."""
    return libm(math.log2, 1.0 + eff_gain_down / params.noise_dev)


def _harvest_rate(params: SystemParams, eff_gain_down):
    return params.eh_efficiency * (eff_gain_down + params.noise_dev)


def _exp2m1(u: np.ndarray) -> np.ndarray:
    """2**u - 1 element-wise, overwriting u, with overflow mapped to +inf."""
    over = u > _EXP2_CAP
    with np.errstate(over="ignore"):
        np.exp2(u, out=u)
    u -= 1.0
    u[over] = np.inf
    return u


def _golden_min(f, a: np.ndarray, b: np.ndarray, iters: int) -> tuple:
    """Golden-section minima of quasi-convex functions on [a, b], all
    elements in lockstep: f maps an array of points to the values of each
    element's function there.  Returns the best points and values."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 <= f2  # keep [a, x2], else [x1, b]
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fp = f(probe)
        x1, x2 = np.where(left, probe, x2), np.where(left, x1, probe)
        f1, f2 = np.where(left, fp, f2), np.where(left, f1, fp)
    xs = np.stack((x1, x2, 0.5 * (a + b)))
    vals = f(xs)
    i = vals.argmin(axis=0)
    return np.choose(i, xs), np.choose(i, vals)


def _cell_size(spec: GridSpec) -> float:
    """The cell size of the grid-gap bounds on each time axis: twice the
    refine's last bracket plus rounding slack, or one grid step unrefined."""
    if spec.refine_iters > 0:
        return 2.0 * spec.resolution * _GOLDEN ** spec.refine_iters + 1e-15
    return spec.resolution


def _shaped(shape: tuple, *arrays: np.ndarray) -> tuple:
    """The flat arrays in shape; floats for a number's empty shape."""
    if not shape:
        return tuple(float(x[0]) for x in arrays)
    return tuple(x.reshape(shape) for x in arrays)


# ---------------------------------------------------------------------------
# local-computation program
# ---------------------------------------------------------------------------

def _local_cost(params: SystemParams, l2, hr, tau_d, tau_c, rate):
    """E_D + E_C - E_H at slots tau_d and tau_c, element-wise over the
    broadcast arguments; l2 is log2(1 + SNR), hr the harvest rate and rate
    B_h (tau_d / T) l2."""
    tee = params.frame_duration
    return (params.decode_energy_per_bit * params.bw_downlink * l2 * tau_d
            + _per_op_energy(params) * params.ops_per_bit * rate * tee
            - hr * (tee - tau_d - tau_c))


def _local_cells(params: SystemParams, l2, rate_per_l2, step: float) -> tuple:
    """(rate, tau_c) at the decode cells where B_h (tau_d / T) is rate_per_l2,
    for gains with l2 = log2(1 + SNR): tau_c is the least grid compute slot
    meeting the op count."""
    rate = rate_per_l2 * l2
    tau_c = (params.ops_per_bit * rate * params.frame_duration
             / params.dev_ops_per_sec / step - 1e-12)
    return rate, np.ceil(tau_c) * step


def _local_runs(params: SystemParams, l2, rate_per_l2, tau_d, step: float):
    """Each gain's feasible run [lo, hi) of decode cells: from the first cell
    whose rate is not below the floor to the first whose tau_d + tau_c
    exceeds the frame.  Both rows rise along the axis (every step is monotone
    and correctly rounded), so a binary search of all gains in lockstep
    finds the same bounds as np.searchsorted over the full rows."""
    n = tau_d.size
    a, b = np.zeros((2, l2.size), dtype=int), np.full((2, l2.size), n)
    while (a < b).any():
        mid = (a + b) // 2
        at = np.minimum(mid, n - 1)  # finished searches probe a valid cell
        rate, tau_c = _local_cells(params, l2, rate_per_l2[at], step)
        right = ~np.stack((rate[0] < params.rate_min,
                           tau_d[at[1]] + tau_c[1] <= params.frame_duration))
        a, b = np.where((a < b) & ~right, mid + 1, a), np.where(right, mid, b)
    return a


# The local grid pass sweeps runs narrower than _BLOCK_WIDTH cells in blocks
# of at most _BLOCK_CELLS cells, and wider runs one at a time: blocks paid
# for runs of tens to hundreds of cells, and lost to the loop over runs of
# thousands, which amortise each numpy call's overhead by themselves.
_BLOCK_CELLS = 1 << 14
_BLOCK_WIDTH = 1024


def _local_grid(params: SystemParams, l2, hr, step: float) -> tuple:
    """Best grid cell (tau_d, tau_c, cost) of the local program for each
    gain, given its l2 = log2(1 + SNR) and harvest rate hr; NaN, NaN and inf
    where no cell is feasible.  The cost is evaluated on each gain's
    feasible run only.  The runs are taken in order of width: each run
    narrower than _BLOCK_WIDTH shares a block of k runs x m cells (m its
    block's widest run) with runs of like width, evaluated in one pass with
    the cells past each run set to inf, and each wider run is swept on its
    own.  Every cell gets the operations, and so the bits, of a sweep of
    that run alone, and each run keeps its first minimum."""
    tee = params.frame_duration
    n = int(math.floor(tee / step))
    # the axis reaches _BLOCK_WIDTH cells past the frame, so that a block's
    # window of m < _BLOCK_WIDTH cells fits from every run's first cell
    tau_d = step * np.arange(1, n + _BLOCK_WIDTH + 1)
    rate_per_l2 = params.bw_downlink * (tau_d / tee)
    lo, hi = _local_runs(params, l2, rate_per_l2[:n], tau_d[:n], step)
    width = hi - lo
    order = np.argsort(width)
    order = order[width[order] > 0]  # the gains with a feasible run
    lo, width = lo[order], width[order]
    narrow, blocks, i = int(width.searchsorted(_BLOCK_WIDTH)), [], 0
    while i < narrow:
        # the most runs whose block, as wide as its last run, fits the budget
        sizes = np.arange(1, narrow - i + 1) * width[i:narrow]
        k = int(sizes.searchsorted(_BLOCK_CELLS, side="right"))
        blocks.append((i, k, int(width[i + k - 1])))
        i += k
    best_d, best_c = np.full(l2.size, math.nan), np.full(l2.size, math.nan)
    best = np.full(l2.size, math.inf)
    for i, k, m in blocks:
        rows, starts = order[i:i + k], lo[i:i + k]
        td = sliding_window_view(tau_d, m)[starts]
        r, tc = _local_cells(params, l2[rows, None],
                             sliding_window_view(rate_per_l2, m)[starts], step)
        c = _local_cost(params, l2[rows, None], hr[rows, None], td, tc, r)
        c[np.arange(m) >= width[i:i + k, None]] = math.inf
        at = (np.arange(k), c.argmin(axis=1))
        best_d[rows], best_c[rows], best[rows] = td[at], tc[at], c[at]
    wide = order[narrow:]
    runs = (x.tolist() for x in (wide, lo[narrow:], width[narrow:], l2[wide],
                                 hr[wide]))
    for k, a, m, l2k, hrk in zip(*runs):
        td = tau_d[a:a + m]
        r, tc = _local_cells(params, l2k, rate_per_l2[a:a + m], step)
        c = _local_cost(params, l2k, hrk, td, tc, r)
        j = int(c.argmin())
        best_d[k], best_c[k], best[k] = td[j], tc[j], c[j]
    return best_d, best_c, best


def brute_local(params: SystemParams, eff_gain_down, spec: GridSpec) -> tuple:
    """Grid minimum of the local program; returns (tau_d, tau_c, cost), as
    floats for a number and as arrays of its shape for an array of gains.

    Finds each gain's feasible run of decode cells at the grid resolution,
    with the cheapest grid-aligned compute slot per the reduction lemma, by
    a binary search of all gains in lockstep; then sweeps the runs in order
    of width, narrow ones in blocks of like width and wide ones one at a
    time (see _local_grid).  Then (optionally) golden-sections the surviving
    1-D problem, with the compute slot continuous, for all gains in lockstep
    inside the best cell, clipped to the decode slots that meet both
    constraints,
    [rate_min T / (B_h l2), T / (1 + K B_h l2 / f)]; a gain without a
    feasible grid cell is refined over all of that interval.
    """
    gd = np.asarray(eff_gain_down, dtype=float)
    shape, gd = gd.shape, gd.ravel()
    tee, step = params.frame_duration, spec.resolution
    l2 = _log2_snr(params, gd)
    if (l2 <= 0.0).any():
        raise ValueError("empty feasible grid: zero channel capacity")
    hr = _harvest_rate(params, gd)
    best_d, best_c, best = _local_grid(params, l2, hr, step)
    if spec.refine_iters > 0:
        def reduced(td):
            r = params.bw_downlink * (td / tee) * l2
            tc = params.ops_per_bit * r * tee / params.dev_ops_per_sec
            val = _local_cost(params, l2, hr, td, tc, r)
            val[(r < params.rate_min) | (td + tc > tee)] = math.inf
            return val
        d_lo = params.rate_min * tee / (params.bw_downlink * l2)
        d_hi = tee / (1.0 + params.ops_per_bit * params.bw_downlink * l2
                      / params.dev_ops_per_sec)
        # fmax and fmin skip the NaN best_d of gains without a grid cell;
        # 0 < d_lo and d_hi < T, so the bracket stays inside the frame
        lo = np.fmax(best_d - step, d_lo)
        hi = np.fmin(best_d + step, d_hi)
        td, val = _golden_min(reduced, lo, hi, spec.refine_iters)
        better = val < best
        r = params.bw_downlink * (td / tee) * l2
        best_d = np.where(better, td, best_d)
        best_c = np.where(
            better, params.ops_per_bit * r * tee / params.dev_ops_per_sec, best_c)
        best = np.where(better, val, best)
    if not (best < math.inf).all():
        raise ValueError("empty feasible grid for the local program")
    return _shaped(shape, best_d, best_c, best)


def local_grid_tolerance(params: SystemParams, eff_gain_down, spec: GridSpec):
    """Upper bound on (grid minimum - true minimum) for the local program;
    element-wise, a float for a number."""
    l2 = _log2_snr(params, eff_gain_down)
    hr = _harvest_rate(params, eff_gain_down)
    lip_d = (params.bw_downlink * l2
             * (params.ops_per_bit * _per_op_energy(params)
                + params.decode_energy_per_bit) + hr)
    lip_c = hr
    couple = 1.0 + params.ops_per_bit * params.bw_downlink * l2 / params.dev_ops_per_sec
    delta = _cell_size(spec)
    base = (lip_d + lip_c) * params.frame_duration
    return lip_d * delta + lip_c * couple * delta + 1e-12 * base


# ---------------------------------------------------------------------------
# offloading program
# ---------------------------------------------------------------------------

def _offload_cost(e_dec, a, hr, room, tau_o, growth):
    """Strategy cost at offload slot tau_o, element-wise, with the transmit
    energy tau_o a growth pinned to the least that delivers the frame's bits;
    a is N_s/|g|^2, growth 2**(bits/(B_g tau_o)) - 1, room T - tau_d and hr
    the harvest rate."""
    return e_dec + tau_o * a * growth - hr * (room - tau_o)


def _offload_sweep(params: SystemParams, n, e_dec, a, hr, room,
                   step: float) -> tuple:
    """Best grid cell (tau_o, cost) of the offload cost curve for each pair,
    over its first n grid slots, by a sweep of each pair's whole row in
    turn; the other arguments are _offload_cost's.  Each row keeps its first
    minimum."""
    tau_o = step * np.arange(1, n.max(initial=0) + 1)
    growth = _exp2m1(params.bits_per_frame / (params.bw_offload * tau_o))
    best_o, best = np.empty(n.size), np.empty(n.size)
    pairs = zip(n.tolist(), e_dec.tolist(), a.tolist(), hr.tolist(),
                room.tolist())
    for k, (m, e_dec_k, a_k, hr_k, room_k) in enumerate(pairs):
        c = _offload_cost(e_dec_k, a_k, hr_k, room_k, tau_o[:m], growth[:m])
        i = int(c.argmin())
        best_o[k], best[k] = tau_o[i], c[i]
    return best_o, best


# _offload_grid evaluates 2 _WINDOW + 1 cells around each pair's slope
# crossing; _ROUNDING is its bound, per unit of magnitude, on the error of a
# computed cell (see _offload_grid).
_WINDOW = 4
_ROUNDING = 16.0 * np.finfo(float).eps


def _offload_grid(params: SystemParams, n, e_dec, a, hr, room,
                  step: float) -> tuple:
    """The bits of _offload_sweep, found by one search over a curve that all
    pairs share and a certified window around each pair's minimum.

    The cost at slot tau is e_dec + a F(tau) - hr (room - tau), where
    F(tau) = tau growth(tau) is convex and falling and the same for every
    pair: a pair's cost falls while the slope of F from one cell to the
    next is below -hr step / a.  One searchsorted over np.diff of F finds
    every pair's crossing, and _offload_cost, in its own operations, prices
    the 2 _WINDOW + 1 cells around it for all pairs in one pass; each window
    keeps its first minimum.  growth overflows to inf on a prefix of the
    axis (the head); its cells cost inf, so each window starts past it.

    The window's minimum m is kept only where it is certified as the row's
    first minimum; otherwise the pair is swept in full by _offload_sweep.
    A computed cell is within delta = _ROUNDING M of the exact cost at a
    slot within 2 eps of its tau (rounding bits / (B_g tau) moves the slot,
    not the curve), where M = |e_dec| + (hr + a) room + a F(tau) bounds
    every term: 16 eps covers _offload_cost's roundings and exp2's last
    bits, with room for the rounding of the test itself.  The exact cost is
    convex in tau.  So let an edge cell e, not an end of the axis, exceed m
    by more than 3 delta, delta taken at the window's first cell, where F
    is largest.  Then e's exact cost exceeds m's, and by convexity every
    cell past e costs at least e's exact cost.  Past the right edge M only
    falls, so such a cell computes above e - 2 delta; past the left edge M
    grows by at most M at e plus the cost's rise, so it computes above
    e - 3 delta.  Either way no cell outside the window computes to m or
    below.  A pair falls back when m or delta is not finite (the all-inf
    window among them), when tau a can underflow to 0 (0 x inf is NaN in
    the head), or when an edge that is not an end of the axis fails the
    test, as an edge holding m does.  The search and the certificate
    use only the oracle's own curve.
    """
    tau_o = step * np.arange(1, n.max(initial=0) + 1)
    growth = _exp2m1(params.bits_per_frame / (params.bw_offload * tau_o))
    curve = tau_o * growth
    head = int(np.count_nonzero(np.isinf(growth)))
    with np.errstate(invalid="ignore", over="ignore"):
        slope = np.diff(curve)
        slope[np.isnan(slope)] = -math.inf  # inf - inf within the head
        mid = slope.searchsorted(-hr * step / a)
    width = 2 * _WINDOW + 1
    start = np.clip(mid - _WINDOW, head, np.maximum(n - width, head))
    cells = start[:, None] + np.arange(width)
    at = np.minimum(cells, tau_o.size - 1)
    cost = _offload_cost(e_dec[:, None], a[:, None], hr[:, None],
                         room[:, None], tau_o[at], growth[at])
    cost[cells >= n[:, None]] = math.inf
    j = cost.argmin(axis=1)
    rows = np.arange(n.size)
    best_o, best = tau_o[at[rows, j]], cost[rows, j]
    bound = 3.0 * _ROUNDING * (np.abs(e_dec) + (hr + a) * room
                               + a * curve[at[:, 0]])
    finite = (best < math.inf) & (bound < math.inf) & (a * step > 0.0)
    inner = (start > head, cells[:, -1] < n - 1)
    sure = (finite & (~inner[0] | (cost[:, 0] > best + bound))
            & (~inner[1] | (cost[:, -1] > best + bound)))
    back = np.flatnonzero(~sure)
    best_o[back], best[back] = _offload_sweep(
        params, n[back], e_dec[back], a[back], hr[back], room[back], step)
    why = [np.count_nonzero(x) for x in (
        ~finite, finite & inner[0] & (j == 0),
        finite & inner[1] & (j == width - 1))]
    log.debug("offload grid: %d of %d pairs fell back to the full sweep "
              "(%d with no finite minimum or bound, %d with the minimum on "
              "the left edge, %d on the right edge, %d within the rounding "
              "bound)", back.size, n.size, *why, back.size - sum(why))
    return best_o, best


def brute_offload(params: SystemParams, eff_gain_down, gain_offload,
                  spec: GridSpec) -> tuple:
    """Grid minimum of the offloading program; returns (tau_o, p_o, cost),
    element-wise over the broadcast gains as brute_local does.

    The decode slot is fixed at its rate-floor value (shared with the local
    program); the transmit energy is eliminated per the reduction lemma.
    Each pair's grid minimum of the remaining 1-D convex curve is found by
    one search of all pairs over the slopes of the curve they share, and a
    window of 2 _WINDOW + 1 cells around it, certified against rounding or
    else swept in full (see _offload_grid); then golden-sectioned in
    lockstep.
    """
    gd, go = np.broadcast_arrays(np.asarray(eff_gain_down, dtype=float),
                                 np.asarray(gain_offload, dtype=float))
    shape, gd, go = gd.shape, gd.ravel(), go.ravel()
    if (go <= 0.0).any():
        raise ValueError("gain_offload must be positive for the offload scan")
    tee, step, bits = params.frame_duration, spec.resolution, params.bits_per_frame
    l2 = _log2_snr(params, gd)
    if (params.rate_min >= params.bw_downlink * l2).any():
        raise ValueError("empty feasible grid: rate floor exceeds capacity")
    tau_d = bits / (params.bw_downlink * l2)
    room = tee - tau_d
    n = np.floor(room / step).astype(int)
    if (n < 1).any():
        raise ValueError("empty feasible grid for the offloading program")
    a = params.noise_server / go
    e_dec = params.decode_energy_per_bit * params.bw_downlink * l2 * tau_d
    hr = _harvest_rate(params, gd)
    best_o, best = _offload_grid(params, n, e_dec, a, hr, room, step)
    if not (best < math.inf).all():
        raise ValueError("empty feasible grid for the offloading program")
    if spec.refine_iters > 0:
        def curve(to):
            return _offload_cost(e_dec, a, hr, room, to,
                                 _exp2m1(bits / (params.bw_offload * to)))
        # growth, and so the cost, is inf below bits / (B_g _EXP2_CAP)
        lo = np.maximum(bits / (params.bw_offload * _EXP2_CAP), best_o - step)
        top = np.minimum(room, best_o + step)
        to, val = _golden_min(curve, lo, top, spec.refine_iters)
        better = val < best
        best_o, best = np.where(better, to, best_o), np.where(better, val, best)
    p_o = a * _exp2m1(bits / (params.bw_offload * best_o))
    return _shaped(shape, best_o, p_o, best)


def offload_grid_tolerance(params: SystemParams, eff_gain_down, gain_offload,
                           spec: GridSpec, tau_o_at):
    """Upper bound on (grid minimum - true minimum) for the offload program,
    using the local Lipschitz constant of the cost curve near tau_o_at;
    element-wise, a float for numbers."""
    bits = params.bits_per_frame
    a = params.noise_server / np.asarray(gain_offload, dtype=float)
    u = bits / (params.bw_offload * np.asarray(tau_o_at, dtype=float))
    over = u > _EXP2_CAP
    p2 = libm(partial(pow, 2.0), np.where(over, 0.0, u))
    lam_slope = a * np.abs((p2 - 1.0) - u * math.log(2.0) * p2)
    lip = lam_slope + _harvest_rate(params, eff_gain_down)
    delta = _cell_size(spec)
    # rounding floor: 1e-12 of every term's magnitude.  lip * T covers the
    # harvested energy; the transmit energy is taken before the cancellation
    # in 2**u - 1, and the decode energy is paid in full.
    base = (lip * params.frame_duration + a * p2 * tau_o_at
            + params.decode_energy_per_bit * bits)
    tol = np.where(over, math.inf, lip * delta + 1e-12 * np.maximum(base, 1e-30))
    return tol if tol.ndim else float(tol)


# ---------------------------------------------------------------------------
# independent root check
# ---------------------------------------------------------------------------

def bisect_lambert(x):
    """Bisection solution of w * exp(w) = x on the principal branch,
    element-wise: a float for a number, an array of its shape for an array.

    Brackets [-1, max(1, ln(1+x)+1)] and halves until the interval is below
    1e-14, all elements in lockstep; independent of the Halley-based
    implementation it certifies.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    bad = flat[np.isnan(flat) | (flat < -_INV_E - 1e-15)].tolist()
    if bad:
        raise ValueError(f"bisect_lambert domain is x >= -1/e, got {bad[0]!r}")
    lo = np.full(flat.size, -1.0)
    hi = np.maximum(1.0, libm(math.log1p, np.maximum(flat, 0.0)) + 1.0)
    hi[flat <= -_INV_E + 1e-16] = -1.0  # at the branch point the root is exact
    for _ in range(200):
        act = np.flatnonzero(~(hi - lo <= 1e-14))
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        up = mid * libm(math.exp, mid) - flat[act] > 0.0
        hi[act[up]] = mid[up]
        lo[act[~up]] = mid[~up]
    return _shaped(x.shape, 0.5 * (lo + hi))[0]
