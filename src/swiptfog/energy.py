"""The paper's per-frame rate and energy terms: the kernel's reference ledger.

Frame of duration T, bandwidth B_h downlink / B_g offload, effective downlink
gain G (received power per unit symbol power) and offload power gain |g|^2:

    rate               R   = B_h * (tau_d / T) * log2(1 + G / noise_dev)
    harvested energy   E_H = eta * (G + noise_dev) * tau_e
    decode energy      E_D = eps * B_h * log2(1 + G / noise_dev) * tau_d
    compute energy     E_C = F0 * alpha * Mc * N0 * ln2 * K * R * T
    offloadable bits   N_O = B_g * tau_o * log2(1 + |g|^2 * p_o / noise_server)

and the frame cost is consumed minus harvested energy; negative cost means
the surplus can be banked.  harvested_energy and offload_bits work
element-wise on arrays as well as on numbers; the other functions take
numbers.  Like the oracle, the ledger takes log2 and ln 2 from the C
library; it shares no value with the kernel, which is checked against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._libm import libm
from .params import SystemParams

__all__ = [
    "EnergyBreakdown",
    "throughput",
    "harvested_energy",
    "decode_energy",
    "compute_energy",
    "offload_bits",
    "frame_cost",
]

@dataclass(frozen=True)
class EnergyBreakdown:
    e_decode: float    # J
    e_compute: float   # J
    e_offload: float   # J, transmit energy tau_o * p_o
    e_harvest: float   # J
    cost: float        # J, consumed - harvested; may be negative


def _check_slot(tau, frame: float, name: str) -> None:
    """Reject a NaN slot or one outside [0, frame], a number or any element
    of an array; the message names the first."""
    ok = np.logical_and(0.0 <= tau, tau <= frame)
    if not ok.all():
        bad = float(np.asarray(tau, dtype=float)[~ok].flat[0])
        raise ValueError(f"{name} must lie in [0, {frame}], got {bad!r}")


def _check_gain(gain, name: str = "eff_gain_down") -> None:
    """Reject a NaN, infinite or negative gain, a number or any element of
    an array; the message names the first."""
    ok = np.logical_and(0.0 <= gain, gain < math.inf)
    if not ok.all():
        bad = float(np.asarray(gain, dtype=float)[~ok].flat[0])
        raise ValueError(f"{name} must be finite and non-negative, got {bad!r}")


def throughput(params: SystemParams, eff_gain_down: float, tau_d: float) -> float:
    """Achievable downlink rate in bit/s for a decode slot of tau_d seconds."""
    _check_gain(eff_gain_down)
    _check_slot(tau_d, params.frame_duration, "tau_d")
    snr = eff_gain_down / params.noise_dev
    return params.bw_downlink * (tau_d / params.frame_duration) * math.log2(1.0 + snr)


def harvested_energy(params: SystemParams, eff_gain_down: float, tau_e: float) -> float:
    """Energy banked while harvesting for tau_e seconds (signal plus noise);
    element-wise over an array of gains."""
    _check_gain(eff_gain_down)
    _check_slot(tau_e, params.frame_duration, "tau_e")
    return params.eh_efficiency * (eff_gain_down + params.noise_dev) * tau_e


def decode_energy(params: SystemParams, eff_gain_down: float, tau_d: float) -> float:
    """Decoder energy: per-bit cost times the bits decoded in tau_d seconds."""
    _check_gain(eff_gain_down)
    _check_slot(tau_d, params.frame_duration, "tau_d")
    snr = eff_gain_down / params.noise_dev
    bits = params.bw_downlink * math.log2(1.0 + snr) * tau_d
    return params.decode_energy_per_bit * bits


def compute_energy(params: SystemParams, rate: float) -> float:
    """Local processing energy for one frame at the given received rate."""
    if not rate >= 0.0:
        raise ValueError("rate must be non-negative")
    return (params.fanout * params.activity_factor * params.immaturity_factor
            * params.thermal_noise_density * math.log(2.0)
            * params.ops_per_bit * rate * params.frame_duration)


def offload_bits(params: SystemParams, gain_offload, p_o, tau_o):
    """Bits deliverable to the server in tau_o seconds at transmit power p_o;
    element-wise on arrays.  log2 is math.log2 at every element, as in
    throughput, so an array gives each number's bits."""
    if not np.all(p_o >= 0.0):
        raise ValueError("p_o must be non-negative")
    if not np.all(gain_offload >= 0.0):
        raise ValueError("gain_offload must be non-negative")
    _check_slot(tau_o, params.frame_duration, "tau_o")
    snr = gain_offload * p_o / params.noise_server
    return params.bw_offload * tau_o * libm(math.log2, 1.0 + snr)


def frame_cost(e_decode: float, e_compute: float, e_offload: float,
               e_harvest: float, i_o: int) -> EnergyBreakdown:
    """Assemble the frame's energy ledger for the selected execution mode.

    i_o = 0 pays the compute energy, i_o = 1 pays the offload transmit energy;
    decoding is paid either way and harvesting is credited either way.
    """
    if i_o not in (0, 1):
        raise ValueError("i_o must be 0 or 1")
    for name, value in (("e_decode", e_decode), ("e_compute", e_compute),
                        ("e_offload", e_offload), ("e_harvest", e_harvest)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if i_o == 0:
        cost = e_compute + e_decode - e_harvest
    else:
        cost = e_offload + e_decode - e_harvest
    return EnergyBreakdown(e_decode=e_decode, e_compute=e_compute,
                           e_offload=e_offload, e_harvest=e_harvest, cost=cost)
