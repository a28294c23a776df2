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

Both solvers refuse allocations whose slots exceed the frame (weak channels
can push the closed forms past the frame boundary; those cases are reported
infeasible rather than clamped).  The decision compares the two optimal
costs; ties go to local compute, and if the cheaper cost exceeds the stored
energy the frame is spent harvesting.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from ._libm import libm
from .energy import (
    EnergyBreakdown,
    compute_energy,
    decode_energy,
    energy_per_op,
    frame_cost,
    harvested_energy,
    offload_power,
)
from .params import SystemParams

__all__ = [
    "Strategy",
    "Allocation",
    "StrategyResult",
    "local_feasible",
    "offload_feasible",
    "solve_local",
    "solve_offload",
    "lambert_w0",
    "lambert_w0_array",
    "StrategyArrays",
    "solve_frames",
    "choose_modes",
    "decide",
    "evaluate_strategies",
    "decision_inequality",
    "mode_rule_sides",
    "pick_cheaper",
    "harvest_only_result",
]

log = logging.getLogger(__name__)

_INV_E = math.exp(-1.0)


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


def _log2_capacity(params: SystemParams, eff_gain_down: float) -> float:
    if eff_gain_down < 0.0:
        raise ValueError("eff_gain_down must be non-negative")
    return math.log2(1.0 + eff_gain_down / params.noise_dev)


def local_feasible(params: SystemParams, eff_gain_down: float) -> bool:
    """Can the rate floor and the compute budget share one frame?

    Requires 1/(B_h * log2(1+SNR)) + K/f_op <= 1/rate_min; the first term is
    seconds-per-bit spent decoding, the second seconds-per-bit computing.
    """
    l2 = _log2_capacity(params, eff_gain_down)
    if l2 <= 0.0:
        return False
    decode_secs_per_bit = 1.0 / (params.bw_downlink * l2)
    compute_secs_per_bit = params.ops_per_bit / params.dev_ops_per_sec
    return decode_secs_per_bit + compute_secs_per_bit <= 1.0 / params.rate_min


def offload_feasible(params: SystemParams, eff_gain_down: float) -> bool:
    """The rate floor must be strictly below the full-frame link capacity."""
    l2 = _log2_capacity(params, eff_gain_down)
    return params.rate_min < params.bw_downlink * l2


def _min_decode_slot(params: SystemParams, eff_gain_down: float) -> float:
    l2 = _log2_capacity(params, eff_gain_down)
    return params.bits_per_frame / (params.bw_downlink * l2)


def solve_local(params: SystemParams, eff_gain_down: float) -> StrategyResult:
    """Optimal harvest/decode/compute split, or infeasible."""
    if not local_feasible(params, eff_gain_down):
        return _INFEASIBLE
    tee = params.frame_duration
    tau_d = _min_decode_slot(params, eff_gain_down)
    tau_c = params.ops_per_bit * params.bits_per_frame / params.dev_ops_per_sec
    tau_e = tee - tau_d - tau_c
    if tau_e < 0.0:
        return _INFEASIBLE
    e_dec = decode_energy(params, eff_gain_down, tau_d)
    e_cmp = compute_energy(params, params.rate_min)
    e_hrv = harvested_energy(params, eff_gain_down, tau_e)
    breakdown = frame_cost(e_dec, e_cmp, 0.0, e_hrv, i_o=0)
    alloc = Allocation(tau_e=tau_e, tau_d=tau_d, tau_c=tau_c, tau_o=0.0,
                       p_o=0.0, i_o=0, strategy=Strategy.LOCAL_COMPUTE)
    return StrategyResult(feasible=True, allocation=alloc, breakdown=breakdown)


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x for x >= -1/e.

    Halley iteration from ln(1+x) for x >= 0 and from the square-root series
    around the branch point for x < 0; iterates until the step is at rounding
    level (at most 50 passes) and guarantees a residual |w e^w - x| within
    1e-12 * max(1, |x|).  No external special-function dependency.
    """
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x < -_INV_E:
        # tolerate representation noise at the branch point
        if x > -_INV_E - 1e-15:
            return -1.0
        raise ValueError(f"lambert_w0 domain is x >= -1/e, got {x!r}")
    if x == 0.0:
        return 0.0
    if x >= 0.0:
        w = math.log1p(x)
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
        if w >= 0.0:
            w = -1e-300  # keep the iterate on the negative side
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if f == 0.0 or wp1 == 0.0:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if w < -1.0:
            w = -1.0 + 1e-16
        if abs(step) <= 2e-16 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)):
        return w
    raise ArithmeticError(f"lambert_w0 failed to converge for x={x!r}")


def solve_offload(params: SystemParams, eff_gain_down: float,
                  gain_offload: float) -> StrategyResult:
    """Optimal harvest/decode/offload split and transmit power, or infeasible.

    The root argument x = eta * |g|^2 * (G + noise_dev) / noise_server equals
    the textbook form with 2^(bits/(B_h*tau_d)) substituted, because the
    decode slot is chosen to meet the rate floor with equality.  x == 0 (no
    offload path) and allocations exceeding the frame are infeasible.
    """
    if gain_offload < 0.0:
        raise ValueError("gain_offload must be non-negative")
    if not offload_feasible(params, eff_gain_down):
        return _INFEASIBLE
    tee = params.frame_duration
    tau_d = _min_decode_slot(params, eff_gain_down)
    x = (params.eh_efficiency * gain_offload
         * (eff_gain_down + params.noise_dev) / params.noise_server)
    if x <= 0.0:
        return _INFEASIBLE
    w = lambert_w0((x - 1.0) * _INV_E)
    if w <= -1.0 + 1e-12:
        return _INFEASIBLE
    bits = params.bits_per_frame
    tau_o = (bits * math.log(2.0) / params.bw_offload) / (1.0 + w)
    tau_e = tee - tau_d - tau_o
    if tau_e < 0.0:
        return _INFEASIBLE
    p_o = offload_power(params, gain_offload, tau_o)
    e_dec = decode_energy(params, eff_gain_down, tau_d)
    e_off = tau_o * p_o
    e_hrv = harvested_energy(params, eff_gain_down, tau_e)
    breakdown = frame_cost(e_dec, 0.0, e_off, e_hrv, i_o=1)
    alloc = Allocation(tau_e=tau_e, tau_d=tau_d, tau_c=0.0, tau_o=tau_o,
                       p_o=p_o, i_o=1, strategy=Strategy.OFFLOAD)
    return StrategyResult(feasible=True, allocation=alloc, breakdown=breakdown)


def evaluate_strategies(params: SystemParams, eff_gain_down: float,
                        gain_offload: float) -> tuple[StrategyResult, StrategyResult]:
    """Solve both per-frame programs; either side may be infeasible."""
    return (solve_local(params, eff_gain_down),
            solve_offload(params, eff_gain_down, gain_offload))


def pick_cheaper(cost_local: float, cost_offload: float) -> Strategy:
    """Mode chosen by cost comparison; exact ties keep computation local."""
    if cost_offload < cost_local:
        return Strategy.OFFLOAD
    return Strategy.LOCAL_COMPUTE


def decision_inequality(params: SystemParams, eff_gain_down: float,
                        gain_offload: float,
                        precomputed: tuple[StrategyResult, StrategyResult] | None = None,
                        ) -> tuple[float, float]:
    """Left/right sides of the closed-form mode test; offload wins when
    left > right.  Only defined when both strategies are feasible."""
    local, offload = precomputed if precomputed is not None else evaluate_strategies(
        params, eff_gain_down, gain_offload)
    if not (local.feasible and offload.feasible):
        raise ValueError("decision inequality needs both strategies feasible")
    a = offload.allocation
    return mode_rule_sides(params, eff_gain_down, a.tau_o, a.p_o)


def mode_rule_sides(params: SystemParams, eff_gain_down, tau_o, p_o):
    """Left/right sides of the closed-form mode test at the optimal offload
    slot and power; offload wins when left > right.  Element-wise."""
    harvest_rate = params.eh_efficiency * (eff_gain_down + params.noise_dev)
    lhs = params.ops_per_bit * params.bits_per_frame * (
        energy_per_op(params) + harvest_rate / params.dev_ops_per_sec)
    rhs = tau_o * (p_o + harvest_rate)
    return lhs, rhs


def harvest_only_result(params: SystemParams, eff_gain_down: float) -> StrategyResult:
    """Whole frame spent harvesting; cost is the negated full-frame harvest."""
    e_hrv = harvested_energy(params, eff_gain_down, params.frame_duration)
    breakdown = frame_cost(0.0, 0.0, 0.0, e_hrv, i_o=0)
    alloc = Allocation(tau_e=params.frame_duration, tau_d=0.0, tau_c=0.0,
                       tau_o=0.0, p_o=0.0, i_o=0, strategy=Strategy.HARVEST_ONLY)
    return StrategyResult(feasible=True, allocation=alloc, breakdown=breakdown)


def decide(params: SystemParams, eff_gain_down: float, gain_offload: float,
           e_stored: float,
           precomputed: tuple[StrategyResult, StrategyResult] | None = None,
           ) -> tuple[Allocation, EnergyBreakdown]:
    """Pick the affordable cheaper mode, falling back to pure harvesting.

    Feasible strategies are compared by optimal cost (ties -> local); if the
    winner's cost exceeds e_stored, or nothing is feasible, the frame is
    spent harvesting.  When both strategies are feasible, the cost ordering
    is cross-checked against the closed-form inequality and any disagreement
    (beyond rounding noise) is logged.
    """
    if e_stored < 0.0:
        raise ValueError("e_stored must be non-negative")
    local, offload = precomputed if precomputed is not None else evaluate_strategies(
        params, eff_gain_down, gain_offload)
    if local.feasible and offload.feasible:
        chosen = local if pick_cheaper(local.cost, offload.cost) is Strategy.LOCAL_COMPUTE else offload
        lhs, rhs = decision_inequality(params, eff_gain_down, gain_offload,
                                       precomputed=(local, offload))
        margin = 1e-9 * max(abs(lhs), abs(rhs), 1e-30)
        rule_offloads = lhs > rhs
        cost_offloads = offload.cost < local.cost
        if rule_offloads != cost_offloads and abs(lhs - rhs) > margin:
            log.warning(
                "mode rule disagrees with cost comparison: lhs=%r rhs=%r "
                "cost_local=%r cost_offload=%r", lhs, rhs, local.cost, offload.cost)
    elif local.feasible:
        chosen = local
    elif offload.feasible:
        chosen = offload
    else:
        chosen = None
    if chosen is not None and chosen.cost <= e_stored:
        return chosen.allocation, chosen.breakdown
    fallback = harvest_only_result(params, eff_gain_down)
    return fallback.allocation, fallback.breakdown


# ---------------------------------------------------------------------------
# Array kernel: the same programs on whole arrays of frames.  The scalar
# functions above stay scalar: they are the reference the kernel is
# certified against (tests/test_kernel.py).


def lambert_w0_array(x) -> np.ndarray:
    """lambert_w0 element by element, with its start points, pass cap,
    stopping rules and residual certificate applied to each element."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be NaN")
    below = x < -_INV_E
    if (below & ~(x > -_INV_E - 1e-15)).any():
        raise ValueError(
            f"lambert_w0 domain is x >= -1/e, got {float(x[below].min())!r}")
    w = np.where(below, -1.0, 0.0)
    pos = x > 0.0
    neg = (x < 0.0) & ~below
    w[pos] = libm(math.log1p, x[pos])
    p = np.sqrt(2.0 * (math.e * x[neg] + 1.0))
    w_neg = -1.0 + p - p * p / 3.0 + 11.0 * libm(partial(pow, exp=3), p) / 72.0
    w[neg] = np.where(w_neg >= 0.0, -1e-300, w_neg)
    iterated = np.flatnonzero(pos | neg)
    active = iterated
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(50):
            if active.size == 0:
                break
            wa, xa = w[active], x[active]
            ew = libm(math.exp, wa)
            f = wa * ew - xa
            wp1 = wa + 1.0
            halt = (f == 0.0) | (wp1 == 0.0)
            denom = ew * wp1 - (wa + 2.0) * f / (2.0 * wp1)
            step = f / denom
            w_next = wa - step
            w_next[w_next < -1.0] = -1.0 + 1e-16
            w[active] = np.where(halt, wa, w_next)
            done = halt | (np.abs(step) <= 2e-16 * (1.0 + np.abs(w_next)))
            active = active[~done]
        wi, xi = w[iterated], x[iterated]
        certified = (np.abs(wi * libm(math.exp, wi) - xi)
                     <= 1e-12 * np.maximum(1.0, np.abs(xi)))
    if not certified.all():
        raise ArithmeticError(
            f"lambert_w0 failed to converge for x={float(xi[~certified][0])!r}")
    return w


@dataclass(frozen=True)
class StrategyArrays:
    """One mode's optimum for every frame of a gain array (see solve_frames).

    Fields mirror Allocation and EnergyBreakdown.  Where the mode is
    infeasible, cost is inf and every other field is NaN.
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


def _strategy_arrays(params: SystemParams, feasible: np.ndarray, i_o: int,
                     **fields) -> StrategyArrays:
    """Mask the infeasible elements, apply the energy module's guards (slots
    inside the frame, energies non-negative) to the feasible ones and
    assemble the cost as frame_cost does for mode i_o."""
    out = {name: np.where(feasible, value, math.nan)
           for name, value in fields.items()}
    for name in ("tau_e", "tau_d", "tau_c", "tau_o"):
        slot = out[name][feasible]
        if ((slot < 0.0) | (slot > params.frame_duration)).any():
            raise ValueError(f"{name} must lie in [0, {params.frame_duration}]")
    for name in ("e_decode", "e_compute", "e_offload", "e_harvest"):
        if (out[name][feasible] < 0.0).any():
            raise ValueError(f"{name} must be non-negative")
    paid = out["e_offload"] if i_o else out["e_compute"]
    cost = np.where(feasible, paid + out["e_decode"] - out["e_harvest"], math.inf)
    return StrategyArrays(feasible=feasible, cost=cost, **out)


def solve_frames(params: SystemParams, eff_gain_down,
                 gain_offload) -> tuple[StrategyArrays, StrategyArrays]:
    """solve_local and solve_offload on every element of two gain arrays of
    one shape, with the scalar solvers' infeasibility rules.

    Each element runs the scalar solvers' operations in the same order, with
    log2, exp and pow from the C library, so results equal theirs bit for
    bit.
    """
    gd = np.asarray(eff_gain_down, dtype=float)
    go = np.asarray(gain_offload, dtype=float)
    if gd.shape != go.shape:
        raise ValueError("gain arrays must have one shape")
    if (gd < 0.0).any():
        raise ValueError("eff_gain_down must be non-negative")
    if (go < 0.0).any():
        raise ValueError("gain_offload must be non-negative")
    tee = params.frame_duration
    bits = params.bits_per_frame
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l2 = libm(math.log2, 1.0 + gd / params.noise_dev)
        tau_d = bits / (params.bw_downlink * l2)
        e_dec = params.decode_energy_per_bit * (params.bw_downlink * l2 * tau_d)
        harvest_rate = params.eh_efficiency * (gd + params.noise_dev)

        compute_secs_per_bit = params.ops_per_bit / params.dev_ops_per_sec
        tau_c = params.ops_per_bit * bits / params.dev_ops_per_sec
        tau_e = tee - tau_d - tau_c
        ok = ((l2 > 0.0)
              & (1.0 / (params.bw_downlink * l2) + compute_secs_per_bit
                 <= 1.0 / params.rate_min)
              & (tau_e >= 0.0))
        local = _strategy_arrays(
            params, ok, 0, tau_e=tau_e, tau_d=tau_d, tau_c=tau_c, tau_o=0.0,
            p_o=0.0, e_decode=e_dec,
            e_compute=compute_energy(params, params.rate_min), e_offload=0.0,
            e_harvest=harvest_rate * tau_e)

        x = (params.eh_efficiency * go * (gd + params.noise_dev)
             / params.noise_server)
        ok = (params.rate_min < params.bw_downlink * l2) & (x > 0.0)
        w = np.full(gd.shape, math.nan)
        w[ok] = lambert_w0_array((x[ok] - 1.0) * _INV_E)
        tau_o = (bits * math.log(2.0) / params.bw_offload) / (1.0 + w)
        tau_e = tee - tau_d - tau_o
        ok &= (w > -1.0 + 1e-12) & (tau_e >= 0.0)
        p_o = np.full(gd.shape, math.nan)
        p_o[ok] = offload_power(params, go[ok], tau_o[ok])
        offload = _strategy_arrays(
            params, ok, 1, tau_e=tau_e, tau_d=tau_d, tau_c=0.0, tau_o=tau_o,
            p_o=p_o, e_decode=e_dec, e_compute=0.0, e_offload=tau_o * p_o,
            e_harvest=harvest_rate * tau_e)
    return local, offload


def choose_modes(params: SystemParams, eff_gain_down,
                 local: StrategyArrays, offload: StrategyArrays) -> np.ndarray:
    """decide's mode choice before its storage check, element-wise: True
    where offloading is the cheaper feasible mode (ties go local).

    Where both modes are feasible the cost comparison is cross-checked
    against the closed-form inequality, as decide does; disagreements beyond
    rounding noise are logged once, with their count.
    """
    offloads = offload.cost < local.cost
    both = local.feasible & offload.feasible
    lhs, rhs = mode_rule_sides(params, np.asarray(eff_gain_down)[both],
                                offload.tau_o[both], offload.p_o[both])
    margin = 1e-9 * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    disagree = ((lhs > rhs) != offloads[both]) & (np.abs(lhs - rhs) > margin)
    if disagree.any():
        log.warning("mode rule disagrees with cost comparison on %d of %d "
                    "frames where both modes are feasible",
                    int(disagree.sum()), int(both.sum()))
    return offloads
