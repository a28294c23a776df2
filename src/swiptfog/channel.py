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

Random stream, since version 2 (``sim.STREAM_VERSION``): a draw of n
frames is one ``standard_normal((n, n_antennas + 1, 2))`` call, the scatter
of every link of every frame.  Each amplitude is written in its link's dominant-path
frame, with no phase draw: the gains use only |h_i|, and |a*e^{j*theta} + z|
has the law of |a + z| for circularly symmetric scatter z.
"""

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class ChannelRealization:
    h: np.ndarray          # complex AP->device amplitudes, shape (n_antennas,),
    g: complex             # and device->server amplitude, in dominant-path frames
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


def _rician_amplitude(k_linear: float, scale, u: float, re, im):
    """Complex amplitude of a fixed-power dominant path plus scatter.

    u in [0, 1) sets the dominant-path phase 2*pi*u (u = 0: the dominant-path
    frame); re and im are standard normals for the scatter.  k_linear is the
    dominant-to-scattered power ratio (0 = pure scatter, inf = deterministic
    magnitude); the expected power is scale**2.  Element-wise on arrays of
    scale, re and im.
    """
    if math.isinf(k_linear):
        los_w, scatter_w = 1.0, 0.0
    else:
        los_w = math.sqrt(k_linear / (k_linear + 1.0))
        scatter_w = math.sqrt(1.0 / (k_linear + 1.0))
    theta = 2.0 * math.pi * u
    real = scale * (los_w * math.cos(theta) + scatter_w * (re / _SQRT2))
    imag = scale * (los_w * math.sin(theta) + scatter_w * (im / _SQRT2))
    return real + 1j * imag


def _effective_gain(magnitude, p_bf: float):
    """Phase-aligned downlink gain p_bf * (sum_i |h_i|)**2 from the antenna
    magnitudes |h_i| on the last axis; element-wise over any leading axes."""
    total = magnitude.sum(axis=-1)
    return p_bf * (total * total)


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
    u, re, im = rng.random(), rng.standard_normal(), rng.standard_normal()
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
    magnitude = np.sqrt(h.real * h.real + h.imag * h.imag)
    # e^{-j angle(h)}, which is 1 where h is 0
    phase = np.divide(h.conj(), magnitude, out=np.ones(h.shape, dtype=complex),
                      where=magnitude > 0.0)
    return math.sqrt(p_t) * phase, float(_effective_gain(magnitude, p_t))


def _amplitudes(params: SystemParams, normals: np.ndarray) -> np.ndarray:
    """Complex amplitudes from scatter normals of shape (..., n_antennas + 1,
    2): antennas 0..N-1, then the offload link, each in its dominant-path
    frame."""
    loss = [pathloss_db(d, params.carrier_freq_mhz, params.pathloss_coeff)
            for d in (params.dist_ap_dev, params.dist_dev_server)]
    scale_h, scale_g = (math.sqrt(10.0 ** (-db / 10.0)) for db in loss)
    return _rician_amplitude(params.rician_k_linear,
                             np.array([scale_h] * params.n_antennas + [scale_g]),
                             0.0, normals[..., 0], normals[..., 1])


def _normals(params: SystemParams, rngs, n_frames: int) -> np.ndarray:
    """Scatter normals of n_frames consecutive frames from each generator,
    shape (len(rngs), n_frames, n_antennas + 1, 2): one standard_normal
    call per generator."""
    shape = (n_frames, params.n_antennas + 1, 2)
    return np.stack([rng.standard_normal(shape) for rng in rngs])


def _gains(params: SystemParams, amplitude: np.ndarray):
    """Effective downlink gains and offload power gains |g|**2 of the
    amplitudes (links on the last axis, as _amplitudes lays them out).
    Only products, sums and np.sqrt, which IEEE 754 rounds correctly: no
    C-library hypot, and no vectorised complex abs whose last bit may
    depend on the CPU."""
    p_bf = params.p_transmit
    if params.normalize_beamforming:
        p_bf /= params.n_antennas
    re, im = amplitude.real, amplitude.imag
    power = re * re + im * im
    n = params.n_antennas
    return _effective_gain(np.sqrt(power[..., :n]), p_bf), power[..., n]


def _draw_gains(params: SystemParams, rngs, n_frames: int):
    """Gains of n_frames consecutive frames from each generator, as
    draw_gains gives them, stacked: two arrays of shape (len(rngs),
    n_frames), formed by one call of each array step for all generators."""
    return _gains(params, _amplitudes(params, _normals(params, rngs, n_frames)))


def draw_gains(params: SystemParams, rng: np.random.Generator,
               n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink gains and offload power gains of n_frames
    consecutive frames, each of shape (n_frames,).  Consumes the generator
    as n_frames calls of realize_channels do, and returns the same gains."""
    gd, go = _draw_gains(params, [rng], n_frames)
    return gd[0], go[0]


def realize_channels(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """One frame's amplitudes and gains: a one-frame draw_gains."""
    amplitude = _amplitudes(params, _normals(params, [rng], 1))[0, 0]
    eff_gain, gain_offload = (float(g) for g in _gains(params, amplitude))
    return ChannelRealization(h=amplitude[:-1], g=complex(amplitude[-1]),
                              eff_gain_down=eff_gain, gain_offload=gain_offload)
