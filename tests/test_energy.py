import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_gain_pairs

from swiptfog.allocator import solve_frames
from swiptfog.energy import (
    compute_energy,
    decode_energy,
    frame_cost,
    harvested_energy,
    offload_bits,
    throughput,
)


def test_throughput_zero_slot(params):
    assert throughput(params, 1e-6, 0.0) == 0.0


def test_throughput_unit_snr_full_frame(params):
    # gain equal to the noise power makes log2(1+SNR) = 1
    assert throughput(params, params.noise_dev, 1.0) == pytest.approx(2e6, rel=1e-12)


def test_throughput_reference_value(params):
    # 2e6 * 1e-3 * log2(1 + 1e5) evaluated directly
    got = throughput(params, 1e5 * params.noise_dev, 1e-3)
    assert got == pytest.approx(33219.309802630174, rel=1e-12)


def test_throughput_slot_range_enforced(params):
    with pytest.raises(ValueError):
        throughput(params, 1e-6, -0.1)
    with pytest.raises(ValueError):
        throughput(params, 1e-6, params.frame_duration + 0.1)


def test_harvest_zero_slot(params):
    assert harvested_energy(params, 1e-6, 0.0) == 0.0


def test_harvest_reference_value(params):
    got = harvested_energy(params, 1e-6, 1.0)
    assert got == pytest.approx(6.00006e-07, rel=1e-12)


def test_harvest_noise_only(params):
    p = replace(params, eh_efficiency=1.0)
    assert harvested_energy(p, 0.0, 1.0) == pytest.approx(1e-11, rel=1e-12)


def test_decode_zero_slot(params):
    assert decode_energy(params, 1e-6, 0.0) == 0.0


def test_decode_energy_is_per_bit_price(params):
    # slot sized to decode exactly the per-frame payload of 2e4 bits
    gd = 1e5 * params.noise_dev
    l2 = math.log2(1.0 + gd / params.noise_dev)
    tau_d = params.bits_per_frame / (params.bw_downlink * l2)
    assert decode_energy(params, gd, tau_d) == pytest.approx(2e-6, rel=1e-12)


def test_decode_free_when_per_bit_cost_zero(params):
    p = replace(params, decode_energy_per_bit=0.0)
    assert decode_energy(p, 1e-6, 0.5) == 0.0


def test_decode_consistent_with_throughput(params):
    rng = np.random.default_rng(1)
    for _ in range(200):
        gd = 10.0 ** rng.uniform(-9, -3)
        tau_d = rng.uniform(0.0, params.frame_duration)
        bits = throughput(params, gd, tau_d) * params.frame_duration
        expected = params.decode_energy_per_bit * bits
        assert decode_energy(params, gd, tau_d) == pytest.approx(expected, rel=1e-12)


def test_compute_energy_reference_value(params):
    # 3 * 0.1 * 1e4 * 4e-21 * ln2 * 1e4 * 2e4 evaluated directly
    got = compute_energy(params, 2e4)
    assert got == pytest.approx(1.6635532333438688e-09, rel=1e-12)


def test_compute_energy_linear_in_rate_and_ops(params):
    assert compute_energy(params, 0.0) == 0.0
    assert compute_energy(params, 4e4) == pytest.approx(
        2.0 * compute_energy(params, 2e4), rel=1e-12)
    doubled = replace(params, ops_per_bit=2 * params.ops_per_bit)
    assert compute_energy(doubled, 2e4) == pytest.approx(
        2.0 * compute_energy(params, 2e4), rel=1e-12)


def test_offload_bits_zero_power(params):
    assert offload_bits(params, 1e-7, 0.0, 0.5) == 0.0


def test_offload_bits_unit_snr(params):
    # |g|^2 * p equal to server noise: log2(2) = 1 over a full frame
    p_o = params.noise_server / 1e-7
    assert offload_bits(params, 1e-7, p_o, 1.0) == pytest.approx(2e6, rel=1e-12)


def test_offload_bits_reference_value(params):
    # snr = 3 over half a frame: 2e6 * 0.5 * 2 bits
    p_o = 3.0 * params.noise_server / 1e-7
    assert offload_bits(params, 1e-7, p_o, 0.5) == pytest.approx(2e6, rel=1e-12)


def test_offload_bits_rejects_negative(params):
    with pytest.raises(ValueError):
        offload_bits(params, 1e-7, -1.0, 0.5)
    with pytest.raises(ValueError):
        offload_bits(params, -1e-7, 1.0, 0.5)


def test_offload_bits_on_arrays_equal_per_claim_calls(params):
    gd, go = np.array(random_gain_pairs(np.random.default_rng(9), 500, params)).T
    offload = solve_frames(params, gd, go)[1]
    claims = (go, offload.p_o, offload.tau_o)
    got = offload_bits(params, *claims)
    want = [offload_bits(params, *claim)
            for claim in zip(*(c.tolist() for c in claims))]
    assert got.tobytes() == np.array(want).tobytes()
    # each bad claim raises, on the array, the message of its scalar call
    tee = params.frame_duration
    for i, bad in ((0, -1e-7), (1, -1e-30), (1, math.nan), (2, -1e-9),
                   (2, tee * 1.0001), (2, math.nan)):
        claim = [c.copy() for c in claims]
        claim[i][3] = bad
        with pytest.raises(ValueError) as raised:
            offload_bits(params, *(c.item(3) for c in claim))
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            offload_bits(params, *claim)


@pytest.mark.parametrize("scale", [-1e-9, 1.0001, math.nan])
def test_slot_guard_names_the_first_bad_element(params, scale):
    tee = params.frame_duration
    bad = scale * tee
    # a later bad element is not the one named
    slots = np.array([[0.0, tee], [bad, 2.0 * tee]])
    gains = np.full(slots.shape, 1e-6)
    message = re.escape(f"tau_e must lie in [0, {tee}], got {bad!r}")
    with pytest.raises(ValueError, match=message):
        harvested_energy(params, 1e-6, bad)
    with pytest.raises(ValueError, match=message):
        harvested_energy(params, gains, slots)
    with pytest.raises(ValueError, match=message.replace("tau_e", "tau_o")):
        offload_bits(params, gains, np.ones(slots.shape), slots)
    good = np.array([0.0, 0.5 * tee, tee])
    want = [harvested_energy(params, 1e-6, t) for t in good.tolist()]
    assert harvested_energy(params, 1e-6, good).tolist() == want


def test_time_homogeneity(params):
    rng = np.random.default_rng(2)
    for _ in range(100):
        gd = 10.0 ** rng.uniform(-9, -4)
        tau = rng.uniform(0.0, 0.5 * params.frame_duration)
        assert harvested_energy(params, gd, 2 * tau) == pytest.approx(
            2 * harvested_energy(params, gd, tau), rel=1e-12)
        assert decode_energy(params, gd, 2 * tau) == pytest.approx(
            2 * decode_energy(params, gd, tau), rel=1e-12)


def test_frame_cost_indicator_algebra():
    b0 = frame_cost(2e-6, 1e-9, 5e-7, 3e-6, i_o=0)
    assert b0.cost == 1e-9 + 2e-6 - 3e-6
    b1 = frame_cost(2e-6, 1e-9, 5e-7, 3e-6, i_o=1)
    assert b1.cost == 5e-7 + 2e-6 - 3e-6


def test_frame_cost_matches_expanded_forms_exactly():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ed, ec, eo, eh = (float(10.0 ** rng.uniform(-9, -4)) for _ in range(4))
        assert frame_cost(ed, ec, eo, eh, 0).cost == ec + ed - eh
        assert frame_cost(ed, ec, eo, eh, 1).cost == eo + ed - eh


def test_frame_cost_surplus_goes_negative():
    b = frame_cost(1e-6, 1e-9, 0.0, 5e-6, i_o=0)
    assert b.cost < 0.0


def test_frame_cost_validates_inputs():
    with pytest.raises(ValueError):
        frame_cost(1.0, 1.0, 1.0, 1.0, i_o=2)
    with pytest.raises(ValueError):
        frame_cost(-1.0, 1.0, 1.0, 1.0, i_o=0)


@pytest.mark.parametrize("slot", range(4))
def test_frame_cost_rejects_nan_energy(slot):
    energies = [0.0] * 4
    energies[slot] = math.nan
    with pytest.raises(ValueError, match="must be non-negative, got nan"):
        frame_cost(*energies, i_o=0)


def test_compute_energy_rejects_nan_rate(params):
    with pytest.raises(ValueError, match="rate must be non-negative"):
        compute_energy(params, math.nan)


@pytest.mark.parametrize("gain, p_o, name", [(math.nan, 1.0, "gain_offload"),
                                             (1e-7, math.nan, "p_o")])
def test_offload_bits_rejects_nan(params, gain, p_o, name):
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        offload_bits(params, gain, p_o, 0.5)


@pytest.mark.parametrize("gain", [-1e-12, math.inf, math.nan])
def test_throughput_rejects_negative_or_non_finite_gain(params, gain):
    with pytest.raises(ValueError, match="eff_gain_down must be finite"):
        throughput(params, gain, 0.5)


@pytest.mark.parametrize("gain", [-1e-12, math.inf, math.nan])
def test_decode_energy_rejects_negative_or_non_finite_gain(params, gain):
    with pytest.raises(ValueError, match="eff_gain_down must be finite"):
        decode_energy(params, gain, 0.5)


@pytest.mark.parametrize("gain", [-1.0, math.inf, math.nan])
def test_harvested_energy_rejects_negative_or_non_finite_gain(params, gain):
    with pytest.raises(ValueError, match=f"eff_gain_down must be finite and "
                                         f"non-negative, got {gain!r}"):
        harvested_energy(params, gain, 1.0)
    gains = np.array([[1e-6, 2e-6], [gain, 3e-6]])
    with pytest.raises(ValueError, match=f"non-negative, got {gain!r}"):
        harvested_energy(params, gains, 1.0)
    good = np.array([[0.0, 1e-6], [2e-6, 3e-6]])
    want = [harvested_energy(params, g, 1.0) for g in good.ravel().tolist()]
    assert harvested_energy(params, good, 1.0).ravel().tolist() == want
