import math
from dataclasses import replace

import numpy as np
import pytest

from swiptfog.channel import (
    conjugate_beamform,
    draw_gains,
    draw_rician,
    pathloss_db,
    realize_channels,
)
from swiptfog.params import load_params


def test_pathloss_reference_points():
    # direct evaluation: 20*log10(2400) - 28 = 39.60422..., +22 per decade
    assert pathloss_db(1.0, 2400.0, 22.0) == pytest.approx(39.60422483423211, abs=1e-9)
    assert pathloss_db(10.0, 2400.0, 22.0) == pytest.approx(61.60422483423211, abs=1e-9)
    assert pathloss_db(10.0, 1.0, 0.0) == pytest.approx(-28.0, abs=1e-12)


def test_pathloss_monotone_in_distance_and_frequency():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d1, d2 = sorted(rng.uniform(1.0, 50.0, 2))
        f1, f2 = sorted(rng.uniform(100.0, 6000.0, 2))
        if d1 < d2:
            assert pathloss_db(d1, 2400.0, 22.0) < pathloss_db(d2, 2400.0, 22.0)
        if f1 < f2:
            assert pathloss_db(5.0, f1, 22.0) < pathloss_db(5.0, f2, 22.0)


def test_pathloss_rejects_sub_meter_distance():
    with pytest.raises(ValueError):
        pathloss_db(0.5, 2400.0, 22.0)


def test_rician_pure_los_limit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sample = draw_rician(rng, math.inf, 0.7)
        assert abs(sample) == pytest.approx(0.7, rel=1e-12)


def test_rician_rayleigh_limit_mean_power():
    rng = np.random.default_rng(2)
    n = 100_000
    power = math.fsum(abs(draw_rician(rng, 0.0, 1.0)) ** 2 for _ in range(n)) / n
    assert power == pytest.approx(1.0, rel=0.02)


def test_rician_normalization_at_reference_factor():
    # dominant/scatter ratio 10**0.35; expected sample power equals scale**2
    rng = np.random.default_rng(3)
    k = 10.0 ** 0.35
    n = 100_000
    power = math.fsum(abs(draw_rician(rng, k, 1.0)) ** 2 for _ in range(n)) / n
    assert power == pytest.approx(1.0, rel=0.02)


def test_rician_rejects_negative_factor():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        draw_rician(rng, -0.1, 1.0)


def test_beamform_coherent_unit_pair():
    w, eff = conjugate_beamform(np.array([1.0 + 0j, 1.0 + 0j]), 1.0)
    assert eff == pytest.approx(4.0, rel=1e-14)
    assert np.allclose(np.abs(w), 1.0)


def test_beamform_single_antenna_phase_irrelevant():
    _, eff = conjugate_beamform(np.array([1j]), 4.0)
    assert eff == pytest.approx(4.0, rel=1e-14)


def test_beamform_rejects_zero_vector():
    with pytest.raises(ValueError):
        conjugate_beamform(np.zeros(3, dtype=complex), 1.0)


def test_beamform_dominates_best_single_antenna():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.integers(1, 8)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p_t = float(10.0 ** rng.uniform(-2, 1))
        _, eff = conjugate_beamform(h, p_t)
        assert eff >= p_t * np.max(np.abs(h)) ** 2 * (1 - 1e-12)


def test_beamform_phase_cancellation_identity():
    # numeric propagated sum equals the closed form for arbitrary phases
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = rng.integers(1, 9)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p_t = float(10.0 ** rng.uniform(-3, 1))
        w, eff = conjugate_beamform(h, p_t)
        received = abs(np.dot(h, w)) ** 2
        assert received == pytest.approx(eff, rel=1e-10)


def test_realize_channels_pure_los_single_antenna():
    # one antenna, effectively no fading, distance chosen for 60 dB loss
    d = 10.0 ** ((60.0 + 28.0 - 20.0 * math.log10(2400.0)) / 22.0)
    p = load_params(
        f"n_antennas = 1\nrician_k_db = 400\ndist_ap_dev = {d!r}\n")
    ch = realize_channels(p, np.random.default_rng(7))
    assert ch.eff_gain_down == pytest.approx(1e-6, rel=1e-6)


def test_realize_channels_effective_gain_identity(params):
    rng = np.random.default_rng(8)
    for _ in range(50):
        ch = realize_channels(params, rng)
        expected = (params.p_transmit / params.n_antennas) * np.abs(ch.h).sum() ** 2
        assert ch.eff_gain_down == pytest.approx(expected, rel=1e-12)
        assert ch.gain_offload == pytest.approx(abs(ch.g) ** 2, rel=1e-12)


def test_realize_channels_literal_power_flag(params):
    p = replace(params, normalize_beamforming=False)
    ch = realize_channels(p, np.random.default_rng(9))
    expected = p.p_transmit * np.abs(ch.h).sum() ** 2
    assert ch.eff_gain_down == pytest.approx(expected, rel=1e-12)


def test_offload_gain_matches_path_loss_on_average(params):
    rng = np.random.default_rng(10)
    n = 10_000
    total = math.fsum(realize_channels(params, rng).gain_offload for _ in range(n))
    loss = pathloss_db(params.dist_dev_server, params.carrier_freq_mhz,
                       params.pathloss_coeff)
    assert total / n == pytest.approx(10.0 ** (-loss / 10.0), rel=0.02)


def test_seeded_realizations_are_bit_identical(params):
    a = realize_channels(params, np.random.default_rng(123))
    b = realize_channels(params, np.random.default_rng(123))
    assert np.array_equal(a.h, b.h)
    assert a.g == b.g
    assert a.eff_gain_down == b.eff_gain_down
    assert a.gain_offload == b.gain_offload


def _phase_kept_gains(params, rng, n):
    """Reference gains drawn with a uniform dominant-path phase per link, as
    random stream 1 drew them.  Test-local and with numpy's own cos, sin and
    abs: only the moments are compared."""
    n_ant, k = params.n_antennas, params.rician_k_linear
    loss = [pathloss_db(d, params.carrier_freq_mhz, params.pathloss_coeff)
            for d in (params.dist_ap_dev, params.dist_dev_server)]
    scale = np.array([10.0 ** (-loss[0] / 20.0)] * n_ant
                     + [10.0 ** (-loss[1] / 20.0)])
    u = rng.random((n, n_ant + 1))
    z = rng.standard_normal((n, n_ant + 1, 2))
    h = scale * (math.sqrt(k / (k + 1.0)) * np.exp(2j * np.pi * u)
                 + math.sqrt(1.0 / (k + 1.0)) * (z[..., 0] + 1j * z[..., 1])
                 / math.sqrt(2.0))
    mag = np.abs(h)
    return ((params.p_transmit / n_ant) * mag[:, :n_ant].sum(axis=1) ** 2,
            mag[:, n_ant] ** 2)


def test_draw_gains_moments_match_a_phase_kept_reference(params):
    # the dominant-path frame drops the phase draw; |a e^{j theta} + z| has
    # the law of |a + z|, so both gains keep their mean and variance
    p = replace(params, dist_ap_dev=15.0)
    assert p.normalize_beamforming
    n = 400_000
    drawn = draw_gains(p, np.random.default_rng(12), n)
    reference = _phase_kept_gains(p, np.random.default_rng(13), n)

    def var_stderr(x):
        c = x - x.mean()
        return math.sqrt(((c ** 4).mean() - (c ** 2).mean() ** 2) / n)

    for a, b in zip(drawn, reference):
        assert abs(a.mean() - b.mean()) <= 5.0 * math.sqrt((a.var() + b.var()) / n)
        assert abs(a.var() - b.var()) <= 5.0 * math.hypot(var_stderr(a),
                                                          var_stderr(b))
