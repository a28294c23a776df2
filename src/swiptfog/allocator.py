"""Closed-form per-frame optimizers and the execution-mode decision.

Each frame of duration T is split into harvest, decode, and either a local
compute slot or an offload slot.  Two convex programs are solved in closed
form:

* local:   minimize E_D + E_C - E_H subject to the rate floor and the
  device's op/s budget.  The objective increases in both the decode and the
  compute slot, so both constraints bind: the decode slot is the shortest
  one meeting the rate floor and the compute slot is ops_per_bit * bits /
  dev_ops_per_sec.

* offload: minimize E_D + tau_o * p_o - E_H subject to the rate floor and
  delivering all received bits to the server.  Eliminating the harvest slot
  and the transmit-energy slack, stationarity gives the offload slot in
  terms of the principal branch of w * e^w = x, and power follows from the
  tight bit constraint.

Both programs refuse allocations whose slots exceed the frame (weak channels
can push the closed forms past the frame boundary; those cases are reported
infeasible rather than clamped).  The decision compares the two optimal
costs; ties go to local compute, and if the cheaper cost exceeds the stored
energy the frame is spent harvesting.

The closed forms are written once, in solve_frames, which solves whole
arrays of frames, and the decision once, in choose_modes and _affordable.
solve_local, solve_offload, evaluate_strategies and decide are views of
them on one frame; for many frames, call solve_frames.  solve_frames
computes every energy term on _ieee and takes only the gain guard from
the energy ledger, its reference; the one-frame views use the ledger's
frame_cost and harvested_energy.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _ieee
from .energy import EnergyBreakdown, _check_gain, frame_cost, harvested_energy
from .params import SystemParams

# The traced benchmark run (perfbench/spans.py) wraps these module-level names.
from .energy import compute_energy, decode_energy  # noqa: F401

__all__ = [
    "Strategy",
    "Allocation",
    "StrategyResult",
    "solve_local",
    "solve_offload",
    "lambert_w0",
    "StrategyArrays",
    "solve_frames",
    "choose_modes",
    "decide",
    "evaluate_strategies",
    "decision_inequality",
    "mode_rule_sides",
    "harvest_only_result",
]

log = logging.getLogger(__name__)

_INV_E = 1.0 / math.e  # the bits of exp(-1), without a C-library call
_PASSES = 50  # Halley passes lambert_w0 allows an element


class Strategy(Enum):
    LOCAL_COMPUTE = "local"
    OFFLOAD = "offload"
    HARVEST_ONLY = "harvest_only"


@dataclass(frozen=True)
class Allocation:
    tau_e: float
    tau_d: float
    tau_c: float
    tau_o: float
    p_o: float
    i_o: int
    strategy: Strategy


@dataclass(frozen=True)
class StrategyResult:
    feasible: bool
    allocation: Allocation | None = None
    breakdown: EnergyBreakdown | None = None

    @property
    def cost(self) -> float:
        return self.breakdown.cost if self.feasible else math.inf


_INFEASIBLE = StrategyResult(feasible=False)


def _halley_pass(k, w, x, live, back2, back3):
    """Pass k of lambert_w0's Halley iteration on a working set: w and x,
    the elements' w of pass k-1 and their arguments, live where they still
    iterate, and back2 and back3 their w of passes k-2 and k-3.  Returns the
    w of pass k, which finished elements keep, and where they iterate on.
    Its temporaries are freed before the next pass starts."""
    ew = _ieee.exp(w)
    # in place, in the order of
    #   f = w e^w - x,  step = f / (e^w (w+1) - (w+2) f / (2 (w+1)))
    f = w * ew
    f -= x
    wp1 = w + 1.0
    halt = (f == 0.0) | (wp1 == 0.0)
    denom = w + 2.0
    denom *= f
    denom /= 2.0 * wp1
    ew *= wp1
    np.subtract(ew, denom, out=denom)
    step = np.divide(f, denom, out=f)
    w_next = np.subtract(w, step, out=denom)
    w_next[w_next < -1.0] = -1.0 + 1e-16
    # |step| <= 2e-16 (1 + |w_next|)
    tol = np.abs(w_next, out=ew)
    tol += 1.0
    tol *= 2e-16
    done = np.abs(step, out=step) <= tol
    halt |= ~live
    done |= halt
    # A pass is a function of (w, x), so an element back at its w of n = 2
    # or 3 passes ago cycles through n floats until the last pass: retire
    # it with the member that pass _PASSES would leave, the w of pass
    # k - ((k - _PASSES) mod n).  Before pass n there is no such w.
    recent = (w_next, w, back2, back3)  # w of passes k, k-1, ...
    w_new = np.where(halt, w, w_next)
    for n in (2, 3):
        if k >= n:
            caught = ~done & (w_next == recent[n])
            if caught.any():
                w_new = np.where(caught, recent[(k - _PASSES) % n], w_new)
                done |= caught
    return w_new, ~done


def lambert_w0(x):
    """Principal branch of w * exp(w) = x for x >= -1/e, element-wise.

    Halley iteration (Corless et al., "On the Lambert W function", 1996)
    from log2(1+x) ln 2 for x > 0 and from the square-root series around
    the branch point for x < 0; exp and log2 come from _ieee.  Each element
    iterates until its step is at rounding level (at most 50 passes) and
    must leave a residual |w e^w - x| within 1e-12 * max(1, |x|).  Near the
    branch point the step's rounding noise can stay above that rule while w
    cycles through two or three adjacent floats; a pass depends on (w, x)
    alone, so an element whose w returns to its value of two or three
    passes back is retired at once with the float the 50th pass would leave
    (same bits, a few passes instead of 50).  The passes run on a
    contiguous working set: a finished element stays in it, unchanged, and
    the set is compacted only once at most half of it still iterates (the
    simulator's roots mostly finish together, at the third or fourth
    pass).  A number gives a float, an array an array of its shape.  No
    external special-function dependency.
    """
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.ravel()
    if np.isnan(x).any():
        raise ValueError("x must not be NaN")
    below = x < -_INV_E
    if (below & ~(x > -_INV_E - 1e-15)).any():
        raise ValueError(
            f"lambert_w0 domain is x >= -1/e, got {float(x[below].min())!r}")
    # representation noise just below the branch point gives -1
    w = np.where(below, -1.0, 0.0)
    idx = np.flatnonzero((x != 0.0) & ~below)
    xa = x[idx]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.sqrt(2.0 * (math.e * xa + 1.0))
        wa = -1.0 + p - p * p / 3.0 + 11.0 * (p * p * p) / 72.0
        wa[wa >= 0.0] = -1e-300  # stay on the negative side
        pos = xa > 0.0
        wa[pos] = _ieee.log2(1.0 + xa[pos]) * _ieee.LN2
        live = np.ones(idx.size, dtype=bool)
        back2 = back3 = wa  # read from passes 2 and 3 on, when they hold w
        for k in range(1, _PASSES + 1):
            if idx.size == 0:
                break
            w_k, live = _halley_pass(k, wa, xa, live, back2, back3)
            wa, back2, back3 = w_k, wa, back2
            if 2 * np.count_nonzero(live) <= live.size:
                w[idx] = wa
                keep = np.flatnonzero(live)
                idx, wa, xa, back2, back3 = (
                    a[keep] for a in (idx, wa, xa, back2, back3))
                live = np.ones(keep.size, dtype=bool)
        w[idx] = wa
        # x = 0 and the points at -1/e pass as they are
        certified = (np.abs(w * _ieee.exp(w) - x)
                     <= 1e-12 * np.maximum(1.0, np.abs(x)))
    if not certified.all():
        raise ArithmeticError(
            f"lambert_w0 failed to converge for x={float(x[~certified][0])!r}")
    w = w.reshape(shape)
    return float(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class StrategyArrays:
    """One mode's optimum for every frame of a gain array (see solve_frames).

    Fields mirror Allocation and EnergyBreakdown, as read-only views.  Read
    feasible first: where it is False, cost is inf and the rest unspecified.
    """
    feasible: np.ndarray
    tau_e: np.ndarray
    tau_d: np.ndarray
    tau_c: np.ndarray
    tau_o: np.ndarray
    p_o: np.ndarray
    e_decode: np.ndarray
    e_compute: np.ndarray
    e_offload: np.ndarray
    e_harvest: np.ndarray
    cost: np.ndarray


def energy_per_op(params: SystemParams) -> float:
    """Switching energy of one logic operation, F0 * alpha * Mc * N0 * ln2."""
    return (params.fanout * params.activity_factor * params.immaturity_factor
            * params.thermal_noise_density * _ieee.LN2)


def _strategy_arrays(params: SystemParams, feasible: np.ndarray, i_o: int,
                     **fields) -> StrategyArrays:
    """Mode i_o's fields, read-only and broadcast to feasible's shape, and its
    cost as frame_cost forms it, inf where infeasible.  One guard, by mask
    reductions: a feasible element has its slots in [0, T], and its p_o,
    energies and spend (paid + e_decode) finite and non-negative."""
    spent = (fields["e_offload"] if i_o else fields["e_compute"]) + fields["e_decode"]
    for name, value in (*fields.items(), ("cost", spent)):
        value, slot = np.asarray(value), name.startswith("tau_")
        high = params.frame_duration if slot else np.finfo(float).max
        if (feasible & ~((value >= 0.0) & (value <= high))).any():
            if slot or name == "p_o" or (feasible & (value < 0.0)).any():
                raise ValueError(f"a feasible frame's {name} must lie in [0, {high}]")
            raise ValueError(f"a feasible frame's {('local', 'offload')[i_o]} cost "
                             "overflows: the configuration's energies are too large")
    cost = np.where(feasible, spent - fields["e_harvest"], math.inf)
    return StrategyArrays(feasible=feasible, cost=cost, **{
        name: np.broadcast_to(v, feasible.shape) for name, v in fields.items()})


def solve_frames(params: SystemParams, eff_gain_down,
                 gain_offload) -> tuple[StrategyArrays, StrategyArrays]:
    """Optimal local and offload allocations for every element of two gain
    arrays of one shape; either mode may be infeasible on any element.

    The root argument x = eta * |g|^2 * (G + noise_dev) / noise_server
    equals the textbook form with 2^(bits/(B_h*tau_d)) substituted, because
    the decode slot meets the rate floor with equality.  x == 0 (no offload
    path) and allocations exceeding the frame are infeasible.  Gains must be
    finite and non-negative, with a finite downlink SNR G / noise_dev and a
    finite root argument, and no field of a feasible frame may overflow.
    log2, exp and 2**u - 1 come from _ieee, so results do not depend on
    the C library or on numpy's vector loops.
    """
    gd = np.asarray(eff_gain_down, dtype=float)
    go = np.asarray(gain_offload, dtype=float)
    if gd.shape != go.shape:
        raise ValueError("gain arrays must have one shape")
    _check_gain(gd)
    _check_gain(go, "gain_offload")
    with np.errstate(over="ignore"):
        if np.isinf(gd / params.noise_dev).any():
            raise ValueError("eff_gain_down / noise_dev, the downlink SNR, "
                             "overflows to inf")
        x = (params.eh_efficiency * go * (gd + params.noise_dev)
             / params.noise_server)
    if np.isinf(x).any():
        i = np.isinf(x).argmax()
        raise ValueError(f"gains eff_gain_down={float(gd.flat[i])!r} and "
                         f"gain_offload={float(go.flat[i])!r} overflow the root "
                         "argument eta * |g|^2 * (G + noise_dev) / noise_server")
    tee = params.frame_duration
    bits = params.bits_per_frame
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l2 = _ieee.log2(1.0 + gd / params.noise_dev)  # log2(1 + SNR)
        tau_d = bits / (params.bw_downlink * l2)
        e_dec = params.decode_energy_per_bit * (params.bw_downlink * l2 * tau_d)
        harvest_rate = params.eh_efficiency * (gd + params.noise_dev)

        tau_c = params.ops_per_bit * bits / params.dev_ops_per_sec
        tau_e = tee - tau_d - tau_c
        # decode seconds per bit plus compute seconds per bit fit 1/rate_min
        ok = ((1.0 / (params.bw_downlink * l2)
               + params.ops_per_bit / params.dev_ops_per_sec
               <= 1.0 / params.rate_min) & (tau_e >= 0.0))
        local = _strategy_arrays(
            params, ok, 0, tau_e=tau_e, tau_d=tau_d, tau_c=tau_c, tau_o=0.0,
            p_o=0.0, e_decode=e_dec,
            e_compute=(energy_per_op(params) * params.ops_per_bit
                       * params.rate_min * tee),
            e_offload=0.0, e_harvest=harvest_rate * tau_e)

        # The rate floor lies strictly below the full-frame capacity.  At
        # equality tau_d fills the frame, which the slot check rejects
        # anyway; the strict test keeps such frames out of lambert_w0.
        ok = (params.rate_min < params.bw_downlink * l2) & (x > 0.0)
        w = np.full(gd.shape, math.nan)
        w[ok] = lambert_w0((x[ok] - 1.0) * _INV_E)
        tau_o = (bits * _ieee.LN2 / params.bw_offload) / (1.0 + w)
        tau_e = tee - tau_d - tau_o
        ok &= (w > -1.0 + 1e-12) & (tau_e >= 0.0)
        p_o = (params.noise_server / go) * _ieee.exp2m1(
            bits / (params.bw_offload * tau_o))
        offload = _strategy_arrays(
            params, ok, 1, tau_e=tau_e, tau_d=tau_d, tau_c=0.0, tau_o=tau_o,
            p_o=p_o, e_decode=e_dec, e_compute=0.0, e_offload=tau_o * p_o,
            e_harvest=harvest_rate * tau_e)
    return local, offload


def _frame_result(arrays: StrategyArrays, i_o: int, index=0) -> StrategyResult:
    """Element index of one mode's arrays, with its ledger from frame_cost."""
    if not arrays.feasible[index]:
        return _INFEASIBLE
    slots = (float(s[index]) for s in (arrays.tau_e, arrays.tau_d, arrays.tau_c,
                                       arrays.tau_o, arrays.p_o))
    energies = (float(e[index]) for e in (arrays.e_decode, arrays.e_compute,
                                          arrays.e_offload, arrays.e_harvest))
    strategy = Strategy.OFFLOAD if i_o else Strategy.LOCAL_COMPUTE
    return StrategyResult(True, Allocation(*slots, i_o=i_o, strategy=strategy),
                          frame_cost(*energies, i_o=i_o))


def evaluate_strategies(params: SystemParams, eff_gain_down: float,
                        gain_offload: float) -> tuple[StrategyResult, StrategyResult]:
    """Both per-frame programs for one frame; either side may be infeasible."""
    local, offload = solve_frames(params, [eff_gain_down], [gain_offload])
    return _frame_result(local, 0), _frame_result(offload, 1)


def solve_local(params: SystemParams, eff_gain_down: float) -> StrategyResult:
    """Optimal harvest/decode/compute split for one frame, or infeasible."""
    return evaluate_strategies(params, eff_gain_down, 0.0)[0]


def solve_offload(params: SystemParams, eff_gain_down: float,
                  gain_offload: float) -> StrategyResult:
    """Optimal harvest/decode/offload split and transmit power for one
    frame, or infeasible."""
    return evaluate_strategies(params, eff_gain_down, gain_offload)[1]


def decision_inequality(params: SystemParams, eff_gain_down: float,
                        gain_offload: float) -> tuple[float, float]:
    """Left/right sides of the closed-form mode test; offload wins when
    left > right.  Only defined when both strategies are feasible."""
    local, offload = evaluate_strategies(params, eff_gain_down, gain_offload)
    if not (local.feasible and offload.feasible):
        raise ValueError("decision inequality needs both strategies feasible")
    a = offload.allocation
    return mode_rule_sides(params, eff_gain_down, a.tau_o, a.p_o)


def mode_rule_sides(params: SystemParams, eff_gain_down, tau_o, p_o):
    """Left/right sides of the closed-form mode test at the optimal offload
    slot and power; offload wins when left > right.  Element-wise, with no
    floating-point warning: a side that overflows is inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        harvest_rate = params.eh_efficiency * (eff_gain_down + params.noise_dev)
        lhs = params.ops_per_bit * params.bits_per_frame * (
            energy_per_op(params) + harvest_rate / params.dev_ops_per_sec)
        rhs = tau_o * (p_o + harvest_rate)
    return lhs, rhs


def _rule_disagreements(params: SystemParams, eff_gain_down,
                        local: StrategyArrays, offload: StrategyArrays,
                        pairs: np.ndarray) -> tuple[int, int]:
    """Of the frames in the mask pairs, all feasible in both modes, how many
    the closed-form mode rule decides otherwise than the cost comparison:
    (beyond rounding, within rounding).  Within rounding means the rule's
    sides lie within 1e-9 of the larger one, or the costs within 8 ulp
    (8 * 2**-52) of the summed magnitudes of both modes' energy terms; both
    bounds are formed only where the rule and the costs disagree."""
    lhs, rhs = mode_rule_sides(params, np.asarray(eff_gain_down),
                               offload.tau_o, offload.p_o)
    at = np.nonzero(((lhs > rhs) != (offload.cost < local.cost)) & pairs)
    lhs, rhs = lhs[at], rhs[at]
    terms = (local.e_compute[at] + offload.e_offload[at] + local.e_harvest[at]
             + offload.e_harvest[at] + 2.0 * local.e_decode[at])
    with np.errstate(invalid="ignore"):  # both sides inf
        sides = np.abs(lhs - rhs) > 1e-9 * np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    costs = np.abs(offload.cost[at] - local.cost[at]) > 8.0 * 2.0**-52 * terms
    beyond = int(np.count_nonzero(sides & costs))
    return beyond, lhs.size - beyond


def choose_modes(params: SystemParams, eff_gain_down,
                 local: StrategyArrays, offload: StrategyArrays) -> np.ndarray:
    """The mode choice before the storage check, element-wise: True where
    offloading is the cheaper feasible mode (ties go local).  An infeasible
    mode costs inf, so the cheaper mode is a feasible one whenever either is.

    Where both modes are feasible the cost comparison is cross-checked
    against the closed-form inequality; disagreements beyond rounding
    (_rule_disagreements) are logged once, with their count.
    """
    both = local.feasible & offload.feasible
    beyond, _ = _rule_disagreements(params, eff_gain_down, local, offload, both)
    if beyond:
        log.warning("mode rule disagrees with cost comparison on %d of %d "
                    "frames where both modes are feasible",
                    beyond, int(np.count_nonzero(both)))
    return offload.cost < local.cost


def _affordable(local: StrategyArrays, offload: StrategyArrays,
                offloads: np.ndarray, e_stored) -> np.ndarray:
    """Where the chosen mode runs, element-wise: it is feasible and its cost
    is at most e_stored.  An unlimited budget (inf) covers the inf cost of
    an infeasible mode, so the cost test alone would run one."""
    feasible = np.where(offloads, offload.feasible, local.feasible)
    return feasible & (np.where(offloads, offload.cost, local.cost) <= e_stored)


def harvest_only_result(params: SystemParams, eff_gain_down: float) -> StrategyResult:
    """Whole frame spent harvesting; cost is the negated full-frame harvest."""
    e_hrv = harvested_energy(params, eff_gain_down, params.frame_duration)
    breakdown = frame_cost(0.0, 0.0, 0.0, e_hrv, i_o=0)
    alloc = Allocation(tau_e=params.frame_duration, tau_d=0.0, tau_c=0.0,
                       tau_o=0.0, p_o=0.0, i_o=0, strategy=Strategy.HARVEST_ONLY)
    return StrategyResult(feasible=True, allocation=alloc, breakdown=breakdown)


def decide(params: SystemParams, eff_gain_down: float, gain_offload: float,
           e_stored: float) -> tuple[Allocation, EnergyBreakdown]:
    """Pick the affordable cheaper mode, falling back to pure harvesting.

    One frame of choose_modes and _affordable: if the cheaper feasible
    mode's cost exceeds e_stored, or nothing is feasible, the frame is spent
    harvesting.
    """
    if not e_stored >= 0.0:
        raise ValueError(f"e_stored must be a non-negative number, got {e_stored!r}")
    local, offload = solve_frames(params, [eff_gain_down], [gain_offload])
    offloads = choose_modes(params, [eff_gain_down], local, offload)
    if _affordable(local, offload, offloads, e_stored)[0]:
        chosen = _frame_result(offload if offloads[0] else local, int(offloads[0]))
    else:
        chosen = harvest_only_result(params, eff_gain_down)
    return chosen.allocation, chosen.breakdown
