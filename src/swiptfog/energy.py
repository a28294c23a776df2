"""Per-frame rate and energy quantities.

Frame of duration T, bandwidth B_h downlink / B_g offload, effective downlink
gain G (received power per unit symbol power) and offload power gain |g|^2:

    rate               R   = B_h * (tau_d / T) * log2(1 + G / noise_dev)
    harvested energy   E_H = eta * (G + noise_dev) * tau_e
    decode energy      E_D = eps * B_h * log2(1 + G / noise_dev) * tau_d
    compute energy     E_C = F0 * alpha * Mc * N0 * ln2 * K * R * T
    offloadable bits   N_O = B_g * tau_o * log2(1 + |g|^2 * p_o / noise_server)
    offload power      p_o = (noise_server / |g|^2) * (2^(bits / (B_g * tau_o)) - 1)

and the frame cost is consumed minus harvested energy; negative cost means
the surplus can be banked.
"""

import math
from dataclasses import dataclass
from functools import partial

from ._libm import libm
from .params import SystemParams

__all__ = [
    "EnergyBreakdown",
    "throughput",
    "harvested_energy",
    "decode_energy",
    "compute_energy",
    "offload_bits",
    "offload_power",
    "energy_per_op",
    "frame_cost",
]

_EXP2 = partial(pow, 2.0)  # 2.0 ** x on a float: the C library's pow

ENERGY_CSV_COLUMNS = ("e_decode", "e_compute", "e_offload", "e_harvest", "cost")


@dataclass(frozen=True)
class EnergyBreakdown:
    e_decode: float    # J
    e_compute: float   # J
    e_offload: float   # J, transmit energy tau_o * p_o
    e_harvest: float   # J
    cost: float        # J, consumed - harvested; may be negative

    def csv_row(self) -> list[str]:
        return [repr(self.e_decode), repr(self.e_compute), repr(self.e_offload),
                repr(self.e_harvest), repr(self.cost)]


def _check_slot(tau: float, frame: float, name: str) -> None:
    if not 0.0 <= tau <= frame:
        raise ValueError(f"{name} must lie in [0, {frame}], got {tau!r}")


def throughput(params: SystemParams, eff_gain_down: float, tau_d: float) -> float:
    """Achievable downlink rate in bit/s for a decode slot of tau_d seconds."""
    _check_slot(tau_d, params.frame_duration, "tau_d")
    snr = eff_gain_down / params.noise_dev
    return params.bw_downlink * (tau_d / params.frame_duration) * math.log2(1.0 + snr)


def harvested_energy(params: SystemParams, eff_gain_down: float, tau_e: float) -> float:
    """Energy banked while harvesting for tau_e seconds (signal plus noise)."""
    _check_slot(tau_e, params.frame_duration, "tau_e")
    return params.eh_efficiency * (eff_gain_down + params.noise_dev) * tau_e


def decode_energy(params: SystemParams, eff_gain_down: float, tau_d: float) -> float:
    """Decoder energy: per-bit cost times the bits decoded in tau_d seconds."""
    _check_slot(tau_d, params.frame_duration, "tau_d")
    snr = eff_gain_down / params.noise_dev
    bits = params.bw_downlink * math.log2(1.0 + snr) * tau_d
    return params.decode_energy_per_bit * bits


def energy_per_op(params: SystemParams) -> float:
    """Switching energy of one logic operation, F0 * alpha * Mc * N0 * ln2."""
    return (params.fanout * params.activity_factor * params.immaturity_factor
            * params.thermal_noise_density * math.log(2.0))


def compute_energy(params: SystemParams, rate: float) -> float:
    """Local processing energy for one frame at the given received rate."""
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    return energy_per_op(params) * params.ops_per_bit * rate * params.frame_duration


def offload_bits(params: SystemParams, gain_offload: float, p_o: float,
                 tau_o: float) -> float:
    """Bits deliverable to the server in tau_o seconds at transmit power p_o."""
    if p_o < 0.0:
        raise ValueError("p_o must be non-negative")
    if gain_offload < 0.0:
        raise ValueError("gain_offload must be non-negative")
    _check_slot(tau_o, params.frame_duration, "tau_o")
    snr = gain_offload * p_o / params.noise_server
    return params.bw_offload * tau_o * math.log2(1.0 + snr)


def offload_power(params: SystemParams, gain_offload, tau_o):
    """Transmit power that delivers a frame's bits to the server in tau_o
    seconds, the inverse of offload_bits.  Works element-wise on arrays."""
    bits = params.bits_per_frame
    return (params.noise_server / gain_offload) * (
        libm(_EXP2, bits / (params.bw_offload * tau_o)) - 1.0)


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
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if i_o == 0:
        cost = e_compute + e_decode - e_harvest
    else:
        cost = e_offload + e_decode - e_harvest
    return EnergyBreakdown(e_decode=e_decode, e_compute=e_compute,
                           e_offload=e_offload, e_harvest=e_harvest, cost=cost)
