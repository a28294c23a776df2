"""Rician fading with indoor path loss and phase-aligned transmit weights.

The downlink is an N-antenna array into a single-antenna device; the uplink
to the fog server is single-antenna.  Amplitudes compose multiplicatively:
``sqrt(linear path gain) * unit-power Rician fade``.  The transmit weights
cancel the per-antenna channel phases so magnitudes add coherently; the
resulting effective downlink gain is what every rate/energy formula consumes.

Power convention: with ``normalize_beamforming`` (the default) the weight
vector carries total power ``p_transmit``; with the flag off each antenna
carries ``p_transmit``, i.e. the array radiates ``n_antennas * p_transmit``.
The flag exists because the phase-only weight definition and a single-number
power budget cannot both hold for a multi-antenna array; see README.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._libm import libm
from .params import SystemParams

__all__ = [
    "ChannelRealization",
    "pathloss_db",
    "draw_rician",
    "conjugate_beamform",
    "realize_channels",
    "draw_gains",
]

_SQRT2 = math.sqrt(2.0)
_SQUARE = partial(pow, exp=2)  # x ** 2 on a float: the C library's pow


@dataclass(frozen=True)
class ChannelRealization:
    h: np.ndarray          # complex AP->device amplitudes, shape (n_antennas,)
    g: complex             # device->server amplitude
    eff_gain_down: float   # received power per unit symbol power, phase-aligned
    gain_offload: float    # |g|^2


def pathloss_db(d: float, f_c_mhz: float, n_coeff: float) -> float:
    """Indoor propagation loss 20*log10(f_MHz) + N*log10(d_m) - 28, in dB.

    Valid for d >= 1 m; below that the formula would predict gain.
    """
    if d < 1.0:
        raise ValueError(f"distance must be >= 1 m, got {d!r}")
    if f_c_mhz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return 20.0 * math.log10(f_c_mhz) + n_coeff * math.log10(d) - 28.0


def _rician_amplitude(k_linear: float, scale, u, re, im):
    """Complex amplitude of a fixed-power dominant path plus scatter.

    u is a uniform draw in [0, 1) that sets the dominant-path phase 2*pi*u;
    re and im are standard normals for the scatter.  k_linear is the
    dominant-to-scattered power ratio (0 = pure scatter, inf = deterministic
    magnitude); the expected power is scale**2.  Works element-wise on
    arrays.  The real and imaginary parts are formed as real arrays, with
    cos and sin from the C library, so every sample equals Python's complex
    arithmetic on the same draws bit for bit.
    """
    if math.isinf(k_linear):
        los_w, scatter_w = 1.0, 0.0
    else:
        los_w = math.sqrt(k_linear / (k_linear + 1.0))
        scatter_w = math.sqrt(1.0 / (k_linear + 1.0))
    theta = 2.0 * math.pi * np.asarray(u)
    real = scale * (los_w * libm(math.cos, theta) + scatter_w * (re / _SQRT2))
    imag = scale * (los_w * libm(math.sin, theta) + scatter_w * (im / _SQRT2))
    return real + 1j * imag


def _effective_gain(h, p_bf: float):
    """Phase-aligned downlink gain p_bf * (sum_i |h_i|)**2, summed over the
    last axis of h (the antennas); element-wise over any leading axes."""
    return p_bf * libm(_SQUARE, np.abs(h).sum(axis=-1))


def draw_rician(rng: np.random.Generator, k_linear: float, scale: float) -> complex:
    """One complex amplitude with a fixed-power dominant path plus scatter.

    k_linear is the dominant-to-scattered power ratio (0 = pure scatter,
    inf = deterministic magnitude).  The dominant-path phase is uniform.
    Expected power of the sample is exactly scale**2.
    """
    if k_linear < 0.0:
        raise ValueError("k_linear must be >= 0")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    u = rng.random()
    re = rng.standard_normal()
    im = rng.standard_normal()
    return complex(_rician_amplitude(k_linear, scale, u, re, im))


def conjugate_beamform(h: np.ndarray, p_t: float) -> tuple[np.ndarray, float]:
    """Phase-cancelling weights and the resulting effective gain.

    Each weight carries amplitude sqrt(p_t) and the negated phase of its
    channel entry, so the propagated sum is sqrt(p_t) * sum(|h_i|) and the
    effective gain is p_t * (sum |h_i|)**2 regardless of the phases.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1 or h.size == 0 or not np.any(np.abs(h) > 0.0):
        raise ValueError("channel vector must be a nonzero 1-D complex vector")
    if p_t <= 0.0:
        raise ValueError("transmit power must be positive")
    w = math.sqrt(p_t) * np.exp(-1j * np.angle(h))
    return w, float(_effective_gain(h, p_t))


def _draw_amplitudes(params: SystemParams, rng: np.random.Generator,
                     n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Downlink amplitudes, shape (n_frames, n_antennas), and offload
    amplitudes, shape (n_frames,), for n_frames consecutive frames.

    Per frame and link (antennas 0..N-1, then the offload link) the stream
    is one uniform and two standard normals, in that order; only these calls
    run in Python, the amplitudes are formed as arrays.
    """
    n = params.n_antennas
    loss_h = pathloss_db(params.dist_ap_dev, params.carrier_freq_mhz,
                         params.pathloss_coeff)
    loss_g = pathloss_db(params.dist_dev_server, params.carrier_freq_mhz,
                         params.pathloss_coeff)
    scale = np.array([math.sqrt(10.0 ** (-loss_h / 10.0))] * n
                     + [math.sqrt(10.0 ** (-loss_g / 10.0))])
    calls = (rng.random, rng.standard_normal, rng.standard_normal)
    draws = np.array([draw() for draw in calls * (n_frames * (n + 1))],
                     dtype=float).reshape(n_frames, n + 1, 3)
    amp = _rician_amplitude(params.rician_k_linear, scale, draws[..., 0],
                           draws[..., 1], draws[..., 2])
    return amp[:, :n], amp[:, n]


def _gains(params: SystemParams, h: np.ndarray,
           g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink gain and offload power gain |g|**2 per frame."""
    p_bf = params.p_transmit
    if params.normalize_beamforming:
        p_bf /= params.n_antennas
    # np.hypot is the C library's hypot, which abs() of a complex uses
    return _effective_gain(h, p_bf), libm(_SQUARE, np.hypot(g.real, g.imag))


def draw_gains(params: SystemParams, rng: np.random.Generator,
               n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink gains and offload power gains of n_frames
    consecutive frames, each of shape (n_frames,).

    Consumes the generator exactly as n_frames calls of realize_channels do,
    and returns the same gains.
    """
    return _gains(params, *_draw_amplitudes(params, rng, n_frames))


def realize_channels(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one frame's channels and the derived effective gains.

    Draw order is fixed (antennas 0..N-1, then the offload link) so a given
    seed reproduces the identical realization sequence.
    """
    h, g = _draw_amplitudes(params, rng, 1)
    eff_gain, gain_offload = _gains(params, h, g)
    return ChannelRealization(h=h[0], g=complex(g[0]),
                              eff_gain_down=float(eff_gain[0]),
                              gain_offload=float(gain_offload[0]))
