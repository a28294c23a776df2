import math

import numpy as np
import pytest

from swiptfog.params import SystemParams, db_to_linear, dumps_params, load_params


def test_empty_config_gives_documented_defaults():
    p = load_params("")
    assert p.n_antennas == 4
    assert p.p_transmit == 1.0
    assert p.bw_downlink == 2e6
    assert p.bw_offload == 2e6
    assert p.noise_dev == 1e-11
    assert p.noise_server == 1e-11
    assert p.eh_efficiency == 0.6
    assert p.decode_energy_per_bit == 1e-10
    assert p.rate_min == 2e4
    assert p.frame_duration == 1.0
    assert p.ops_per_bit == 1e4
    assert p.dev_ops_per_sec == 1e9
    assert p.immaturity_factor == 1e4
    assert p.activity_factor == 0.1
    assert p.fanout == 3.0
    assert p.thermal_noise_density == 4.0e-21
    assert p.carrier_freq_mhz == 2400.0
    assert p.pathloss_coeff == 22.0
    assert p.rician_k_db == 3.5
    assert p.dist_ap_dev == 6.0
    assert p.dist_dev_server == 10.0


def test_single_field_override_leaves_rest_at_defaults():
    p = load_params("dist_ap_dev = 15\n")
    d = load_params("")
    assert p.dist_ap_dev == 15.0
    for name in ("p_transmit", "eh_efficiency", "rate_min", "dist_dev_server"):
        assert getattr(p, name) == getattr(d, name)


def test_zero_harvest_efficiency_rejected():
    with pytest.raises(ValueError, match="eh_efficiency"):
        load_params("eh_efficiency = 0\n")


def test_validation_names_offending_field():
    for line, field in [
        ("bw_downlink = -1", "bw_downlink"),
        ("activity_factor = 1.0", "activity_factor"),
        ("frame_duration = 0", "frame_duration"),
        ("n_antennas = 0", "n_antennas"),
    ]:
        with pytest.raises(ValueError, match=field):
            load_params(line)


def test_unknown_key_is_an_error():
    with pytest.raises(ValueError, match="not_a_key"):
        load_params("not_a_key = 3\n")


def test_key_given_twice_is_an_error_naming_both_lines():
    text = "n_antennas = 4\n# two antennas instead\nn_antennas = 2\n"
    with pytest.raises(ValueError,
                       match=r"line 3: .*'n_antennas'.* on line 1$"):
        load_params(text)


def test_malformed_line_is_an_error():
    with pytest.raises(ValueError, match="key = value"):
        load_params("just some words\n")


def test_roundtrip_is_exact():
    p = load_params("eh_efficiency = 0.37\nnoise_dev = 3.3e-12\n")
    again = load_params(dumps_params(p))
    assert again == p


def test_boolean_field_parsing():
    assert load_params("normalize_beamforming = false\n").normalize_beamforming is False
    assert load_params("normalize_beamforming = 1\n").normalize_beamforming is True
    with pytest.raises(ValueError, match="normalize_beamforming"):
        load_params("normalize_beamforming = maybe\n")


@pytest.mark.parametrize("line, message", [
    ("n_antennas = 2.5", "n_antennas: expected an integer, got '2.5'"),
    ("dist_ap_dev = six", "dist_ap_dev: expected a number, got 'six'"),
])
def test_value_of_the_wrong_type_names_key_and_expectation(line, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_params(line)


def test_env_argument_is_ignored():
    """Parameters come only from the text; perfbench/worker.py passes
    env={}, and a mapping with a field override changes nothing."""
    assert load_params("", env={}) == load_params("") == SystemParams()
    assert load_params("dist_ap_dev = 6\n",
                       env={"SWIPTFOG_DIST_AP_DEV": "15"}).dist_ap_dev == 6.0


def test_db_to_linear_identity_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-110.0) == pytest.approx(1e-11, rel=1e-12)
    # 10**0.35, direct evaluation
    assert db_to_linear(3.5) == pytest.approx(2.2387211385683394, rel=1e-14)


def test_db_to_linear_reciprocal_property():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-150.0, 150.0, 500):
        assert db_to_linear(x) * db_to_linear(-x) == pytest.approx(1.0, rel=1e-12)


def test_params_are_immutable():
    p = SystemParams()
    with pytest.raises(Exception):
        p.rate_min = 1.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_rician_factor_rejected(value):
    with pytest.raises(ValueError, match="^rician_k_db must be finite$"):
        SystemParams(rician_k_db=value)


def test_bits_per_frame_positive():
    p = SystemParams(rate_min=2e4, frame_duration=1.0)
    assert p.bits_per_frame == 2e4
    assert math.isfinite(p.rician_k_linear)


@pytest.mark.parametrize("field", ["decode_energy_per_bit", "pathloss_coeff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_cost_and_loss_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{field: value})


@pytest.mark.parametrize("field", ["dist_ap_dev", "dist_dev_server"])
def test_sub_metre_distance_rejected_at_construction(field):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{field: 0.5})
    assert getattr(SystemParams(**{field: 1.0}), field) == 1.0


def test_bool_antenna_count_rejected():
    with pytest.raises(ValueError, match="n_antennas"):
        SystemParams(n_antennas=True)


def test_non_bool_beamforming_flag_rejected():
    for value in ("no", 0, None):
        with pytest.raises(ValueError, match="normalize_beamforming"):
            SystemParams(normalize_beamforming=value)
