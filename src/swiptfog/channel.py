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
of every link of every frame.  Each amplitude is written in its link's
dominant-path frame, with no phase draw: the gains use only |h_i|, and
|a*e^{j*theta} + z| has the law of |a + z| for circularly symmetric scatter
z.  The draw is turned into gains with real arithmetic in place (the
dominant path is real, so its cos is 1 and its sin 0): the normals are
scaled into the amplitudes' real and imaginary parts, the link scales by one
contiguous multiply, and squared, so monte_carlo reuses one normals buffer
for every chunk of trials and forms no complex array.  The powers go into
one contiguous (..., n_antennas + 1) plane; whole-plane adds of its square
roots sum the antennas in the order of numpy's sum.
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


def _rician_weights(k_linear: float) -> tuple[float, float]:
    """Amplitude weights (los_w, scatter_w) of the dominant path and of the
    scatter for the dominant-to-scattered power ratio k_linear (0 = pure
    scatter, inf = deterministic magnitude); los_w**2 + scatter_w**2 = 1."""
    if math.isinf(k_linear):
        return 1.0, 0.0
    return math.sqrt(k_linear / (k_linear + 1.0)), math.sqrt(1.0 / (k_linear + 1.0))


def _effective_gain(magnitude, p_bf: float):
    """Phase-aligned downlink gain p_bf * (sum_i |h_i|)**2 from the antenna
    magnitudes |h_i| on the last axis; element-wise over any leading axes.
    The sum has the bits of magnitude.sum(axis=-1), which the _trial_gains
    pins check at 1, 3 and 8 antennas: numpy's pairwise summation adds
    fewer than 8 terms one after another, so whole-plane adds keep its
    order (about 3 ms less per mc_outage repetition at 4 antennas); from 8
    terms on it pairs them, and sum stays."""
    n = magnitude.shape[-1]
    if n >= 8:
        total = magnitude.sum(axis=-1)
    else:
        total = magnitude[..., 0].copy()
        for i in range(1, n):
            total += magnitude[..., i]
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
    los_w, scatter_w = _rician_weights(k_linear)
    theta = 2.0 * math.pi * u
    return complex(scale * (los_w * math.cos(theta) + scatter_w * (re / _SQRT2)),
                   scale * (los_w * math.sin(theta) + scatter_w * (im / _SQRT2)))


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


def _to_amplitudes(params: SystemParams, normals: np.ndarray) -> np.ndarray:
    """Scale C-contiguous scatter normals of shape (..., n_antennas + 1, 2)
    in place into the links' amplitudes, (real, imaginary) on the last
    axis: antennas 0..N-1, then the offload link, each in its dominant-path
    frame, so the dominant path is real.  The operation order is that of
    scale * (los_w + scatter_w * (re / sqrt(2))) and
    scale * (scatter_w * (im / sqrt(2))).  Returns normals."""
    if not normals.flags.c_contiguous:  # so that the reshape is a view
        raise ValueError("normals must be C-contiguous")
    loss = [pathloss_db(d, params.carrier_freq_mhz, params.pathloss_coeff)
            for d in (params.dist_ap_dev, params.dist_dev_server)]
    scale_h, scale_g = (math.sqrt(10.0 ** (-db / 10.0)) for db in loss)
    los_w, scatter_w = _rician_weights(params.rician_k_linear)
    normals /= _SQRT2
    normals *= scatter_w
    normals[..., 0] += los_w
    # one contiguous multiply: each link's scale, repeated for (re, im)
    links = normals.reshape(-1, normals.shape[-2] * 2)
    links *= np.repeat([scale_h] * params.n_antennas + [scale_g], 2)
    return normals


def _to_gains(params: SystemParams, amplitudes: np.ndarray, gd: np.ndarray,
              go: np.ndarray) -> None:
    """Square the amplitudes of _to_amplitudes in place and write the
    effective downlink gains into gd and the offload power gains |g|**2 into
    go, both of shape amplitudes.shape[:-2].  Only products, sums and
    np.sqrt, which IEEE 754 rounds correctly: no C-library hypot, and no
    vectorised complex abs whose last bit may depend on the CPU."""
    p_bf = params.p_transmit
    if params.normalize_beamforming:
        p_bf /= params.n_antennas
    n = params.n_antennas
    amplitudes *= amplitudes
    power = np.add(amplitudes[..., 0], amplitudes[..., 1])  # contiguous plane
    go[...] = power[..., n]
    gd[...] = _effective_gain(np.sqrt(power, out=power)[..., :n], p_bf)


def draw_gains(params: SystemParams, rng: np.random.Generator,
               n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective downlink gains and offload power gains of n_frames
    consecutive frames, each of shape (n_frames,), from one
    standard_normal((n_frames, n_antennas + 1, 2)) call.  Consumes the
    generator as n_frames calls of realize_channels do, and returns the
    same gains."""
    normals = rng.standard_normal((n_frames, params.n_antennas + 1, 2))
    gd, go = np.empty(n_frames), np.empty(n_frames)
    _to_gains(params, _to_amplitudes(params, normals), gd, go)
    return gd, go


def realize_channels(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """One frame's amplitudes and gains: a one-frame draw_gains."""
    amplitude = _to_amplitudes(
        params, rng.standard_normal((params.n_antennas + 1, 2)))
    h = amplitude[:, 0] + 1j * amplitude[:, 1]
    gd, go = np.empty(()), np.empty(())
    _to_gains(params, amplitude, gd, go)
    return ChannelRealization(h=h[:-1], g=complex(h[-1]),
                              eff_gain_down=float(gd), gain_offload=float(go))
