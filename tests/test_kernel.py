"""Certification of the array kernel against independent references.

solve_frames is the one implementation of the closed forms; solve_local,
solve_offload, evaluate_strategies and decide are views of it.  Its claims
are checked here against the energy ledger (throughput, decode, compute and
harvested energy, offload_bits), which evaluates each quantity from its
definition, and against the first-order optimality condition of the offload
program; the grid searches and the bisection root oracle check them in
test_certify_passes_kernel_optima and the acceptance suite.  monte_carlo
must reproduce a frame-by-frame replay of realize_channels,
evaluate_strategies and the storage update on the same trial seeds.
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swiptfog import (
    SystemParams,
    compute_energy,
    decide,
    decode_energy,
    evaluate_strategies,
    harvested_energy,
    load_params,
    monte_carlo,
    offload_bits,
    realize_channels,
    run_trace,
    solve_local,
    solve_offload,
    throughput,
)
from swiptfog.allocator import StrategyArrays, solve_frames
from swiptfog.channel import _to_amplitudes, draw_gains
from swiptfog.cli import certify
from swiptfog.params import with_overrides
from swiptfog.sim import TRIAL_CHUNK, _monte_carlo, _trial_gains

from conftest import FEW_CELL_DECODE

_FIELDS = tuple(f.name for f in dataclasses.fields(StrategyArrays)
                if f.name not in ("feasible", "cost"))


def _check_claims(params: SystemParams, gd: np.ndarray, go: np.ndarray) -> tuple:
    """Check solve_frames' optima on every pair against the references;
    returns the feasibility masks.

    Feasible elements: the slots partition the frame, the rate floor binds,
    the compute slot runs K * R * T operations, the energies and the cost
    equal the energy ledger, the offload slot and power deliver the frame's
    bits, and the offload cost is stationary in the offload slot.
    Infeasible elements: cost inf; the other fields are unspecified (see
    test_feasible_fields_are_finite_and_in_range).  Local is feasible
    exactly where the rate floor can be met in the time the compute slot
    leaves (to within 1e-9 of the boundary).
    """
    local, offload = solve_frames(params, gd, go)
    tee, bits, rate_min = (params.frame_duration, params.bits_per_frame,
                           params.rate_min)
    tau_c_min = params.ops_per_bit * bits / params.dev_ops_per_sec
    for i, feasible in enumerate(local.feasible.tolist()):
        g_d = float(gd[i])
        room = throughput(params, g_d, tee - tau_c_min) if tau_c_min <= tee else 0.0
        assert (room >= rate_min * (1.0 - 1e-9) if feasible
                else room <= rate_min * (1.0 + 1e-9)), g_d
    for arrays, i_o in ((local, 0), (offload, 1)):
        assert (arrays.cost[~arrays.feasible] == math.inf).all()
        for i in np.flatnonzero(arrays.feasible).tolist():
            g_d, g_o = float(gd[i]), float(go[i])
            where = (i_o, g_d, g_o)
            c = {name: float(getattr(arrays, name)[i])
                 for name in _FIELDS + ("cost",)}
            slots = (c["tau_e"], c["tau_d"], c["tau_c"], c["tau_o"])
            assert min(slots) >= 0.0 and c["p_o"] >= 0.0, where
            assert math.fsum(slots) == pytest.approx(tee, rel=1e-12), where
            rate = throughput(params, g_d, c["tau_d"])
            assert rate == pytest.approx(rate_min, rel=1e-9), where
            ledger = {"e_decode": decode_energy(params, g_d, c["tau_d"]),
                      "e_harvest": harvested_energy(params, g_d, c["tau_e"])}
            if i_o == 0:
                assert c["tau_o"] == c["p_o"] == c["e_offload"] == 0.0, where
                assert c["tau_c"] * params.dev_ops_per_sec == pytest.approx(
                    params.ops_per_bit * rate * tee, rel=1e-9), where
                ledger["e_compute"] = paid = compute_energy(params, rate)
            else:
                tau_o, p_o = c["tau_o"], c["p_o"]
                assert c["tau_c"] == c["e_compute"] == 0.0 and p_o > 0.0, where
                assert offload_bits(params, g_o, p_o, tau_o) == pytest.approx(
                    bits, rel=1e-9), where
                ledger["e_offload"] = paid = tau_o * p_o
                # d cost / d tau_o = (N_s/|g|^2) (2^(a/tau_o) (1 - a ln2/tau_o)
                # - 1) + eta (G + noise_dev), a = bits / B_g, is 0 at the optimum
                a = bits / params.bw_offload
                power = params.noise_server / g_o * 2.0 ** (a / tau_o)
                slope = (power * (1.0 - a * math.log(2.0) / tau_o)
                         - params.noise_server / g_o
                         + params.eh_efficiency * (g_d + params.noise_dev))
                assert abs(slope) <= 1e-9 * power * a * math.log(2.0) / tau_o, where
            for name, value in ledger.items():
                assert c[name] == pytest.approx(value, rel=1e-12), (name, where)
            scale = paid + ledger["e_decode"] + ledger["e_harvest"]
            assert c["cost"] == pytest.approx(
                paid + ledger["e_decode"] - ledger["e_harvest"],
                abs=1e-12 * scale), where
    return local.feasible, offload.feasible


def _wide_range_pairs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(4242)
    n = 4000
    gd = 10.0 ** rng.uniform(-14.0, -2.0, n)
    go = 10.0 ** rng.uniform(-14.0, -2.0, n)
    gd[:3] = 0.0  # no downlink capacity at all
    go[3:6] = 0.0  # no offload path
    return gd, go


def test_solve_frames_matches_the_energy_ledger(params):
    loc, off = _check_claims(params, *_wide_range_pairs())
    # every feasibility pattern occurs: both, local only, offload only, none
    for pattern in ((True, True), (True, False), (False, True), (False, False)):
        assert np.any((loc == pattern[0]) & (off == pattern[1])), pattern


def test_solve_frames_bits_are_pinned(params):
    """sha256 of solve_frames' feasibility, cost, tau_o and p_o arrays, both
    modes, over the wide-range pairs (output version 3), with tau_o and p_o
    set to NaN where the mode is infeasible, as the digest was taken when
    solve_frames filled them so.

    The kernel's log2, exp and 2**u - 1 are built from IEEE-754 basic
    operations (swiptfog._ieee), so the digest does not depend on the C
    library or the numpy build.
    """
    h = hashlib.sha256()
    for arrays in solve_frames(params, *_wide_range_pairs()):
        h.update(arrays.feasible.astype("u1").tobytes())
        h.update(arrays.cost.astype("<f8").tobytes())
        for name in ("tau_o", "p_o"):
            masked = np.where(arrays.feasible, getattr(arrays, name), math.nan)
            h.update(masked.astype("<f8").tobytes())
    assert h.hexdigest() == (
        "eac1de8d3f887f96feff71424aa9fd7a980aa3ed1fab5dc447915c3b2d4a73ed")


def test_solve_frames_when_local_is_never_feasible(params):
    # compute budget exactly saturated: only offloading remains
    p = with_overrides(params, ops_per_bit=50_000.0)
    rng = np.random.default_rng(7)
    gd = 10.0 ** rng.uniform(-10.0, -3.0, 500)
    go = 10.0 ** rng.uniform(-10.0, -4.0, 500)
    loc, off = _check_claims(p, gd, go)
    assert not loc.any() and off.any()


def test_solve_frames_accepts_any_shape_and_rejects_negative_gains(params):
    gd = np.full((3, 4), 1e-6)
    go = np.full((3, 4), 1e-7)
    local, offload = solve_frames(params, gd, go)
    assert local.cost.shape == offload.tau_o.shape == (3, 4)
    with pytest.raises(ValueError):
        solve_frames(params, np.array([-1e-9]), np.array([1e-7]))
    with pytest.raises(ValueError):
        solve_frames(params, np.array([1e-6]), np.array([-1e-9]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
@pytest.mark.parametrize("which", ["down", "offload"])
def test_non_finite_or_negative_gains_fail_in_the_kernel_and_every_view(
        params, bad, which):
    gd, go = (bad, 1e-7) if which == "down" else (1e-6, bad)
    with pytest.raises(ValueError, match="finite and non-negative"):
        solve_frames(params, np.array([1e-6, gd]), np.array([1e-7, go]))
    views = [lambda: solve_offload(params, gd, go),
             lambda: evaluate_strategies(params, gd, go),
             lambda: decide(params, gd, go, math.inf)]
    if which == "down":
        views.append(lambda: solve_local(params, gd))
    for view in views:
        with pytest.raises(ValueError, match="finite and non-negative"):
            view()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
def test_solve_frames_names_the_first_bad_gain(params, bad):
    ok = np.array([1e-6, 1e-6, 1e-6])
    gains = np.array([1e-7, bad, -1.0])
    for name, args in (("eff_gain_down", (gains, ok)),
                       ("gain_offload", (ok, gains))):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite and non-negative, got {bad!r}")):
            solve_frames(params, *args)


def test_solve_frames_rejects_a_downlink_snr_that_overflows(params):
    # G / noise_dev is inf, so tau_d = 0 and the decode energy inf * 0 = NaN
    for gd in (1e300, 1e308):
        with pytest.raises(ValueError, match="SNR.*overflows"):
            solve_frames(params, np.array([1e-6, gd]), np.array([1e-7, 0.0]))
        with pytest.raises(ValueError, match="SNR.*overflows"):
            solve_local(params, gd)
    local, _ = solve_frames(params, np.array([1e296]), np.array([0.0]))
    assert np.isfinite(local.cost).all()


def test_solve_frames_rejects_a_root_argument_that_overflows(params):
    # finite SNR, but eta * |g|^2 * (G + noise_dev) / noise_server is inf
    for gd, go in ((1e290, 1e100), (1e200, 1e120)):
        named = re.escape(f"eff_gain_down={gd!r} and gain_offload={go!r}")
        with pytest.raises(ValueError, match=named + ".*root argument"):
            solve_frames(params, np.array([1e-6, gd]), np.array([1e-7, go]))
        with pytest.raises(ValueError, match="root argument"):
            decide(params, gd, go, math.inf)
    local, offload = solve_frames(params, np.array([1e290]), np.array([1e-30]))
    assert np.isfinite(local.cost).all() and np.isfinite(offload.cost).all()


def test_draw_gains_match_realize_channels(params):
    gd, go = draw_gains(params, np.random.default_rng(99), 50)
    rng = np.random.default_rng(99)
    for g_d, g_o in zip(gd.tolist(), go.tolist()):
        ch = realize_channels(params, rng)
        assert (ch.eff_gain_down, ch.gain_offload) == (g_d, g_o)


def _numpy_trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """The generator of trial `trial` of master_seed, seeded by numpy's own
    SeedSequence."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(trial,)))


@pytest.mark.parametrize("n_antennas", [1, 8])
@pytest.mark.parametrize("normalize", [True, False])
def test_chunk_gains_equal_stacked_draw_gains(params, n_antennas, normalize):
    # two full normals buffers and a partial one
    p = with_overrides(params, n_antennas=n_antennas,
                       normalize_beamforming=normalize)
    n_trials = 2 * TRIAL_CHUNK + 3
    gd, go = _trial_gains(p, 77, n_trials, 40)
    assert gd.shape == go.shape == (n_trials, 40)
    for t in range(n_trials):
        want_gd, want_go = draw_gains(p, _numpy_trial_rng(77, t), 40)
        assert np.array_equal(gd[t].view(np.int64), want_gd.view(np.int64))
        assert np.array_equal(go[t].view(np.int64), want_go.view(np.int64))


@pytest.mark.parametrize("n_antennas,normalize,digest", [
    (1, True, "b2d66159bfce703b5199dd587f1b988c0f47517ad8e50a377686c51684d3186a"),
    (1, False, "b2d66159bfce703b5199dd587f1b988c0f47517ad8e50a377686c51684d3186a"),
    (3, True, "c3668d220f58d33b79745b5a572d25236bd6498a6bd8b81a18c7260be0815454"),
    (3, False, "cb340f9c84c03b11618063c29584d1118797a7192348e8515fdbe8a86bac456a"),
    (8, True, "faedc0e13c058661acb78d9d1dc3314a4c1a66ad60b45c958beccc8abfecde8f"),
    (8, False, "24bda2e8ffc09b4fb0a04c10a8cbd48f3f31ee91b7e01134c0330063471d67b3"),
])
def test_trial_gains_bits_are_pinned(params, n_antennas, normalize, digest):
    """sha256 of _trial_gains' downlink and offload gains, 40 trials (two
    normals buffers) x 50 frames at master seed 256, at array sizes other
    than the default 4 antennas and under both power conventions (output
    version 3)."""
    p = with_overrides(params, n_antennas=n_antennas,
                       normalize_beamforming=normalize)
    h = hashlib.sha256()
    for gains in _trial_gains(p, 256, 40, 50):
        h.update(gains.astype("<f8").tobytes())
    assert h.hexdigest() == digest



def test_to_amplitudes_rejects_a_strided_buffer(params):
    """The links are scaled through a reshaped view, which a strided buffer
    cannot give without a copy that the scaling would miss."""
    normals = np.ones((3, params.n_antennas + 1, 4))[..., ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _to_amplitudes(params, normals)
    assert (normals == 1.0).all()


def _scalar_replay(params, n_frames, n_trials, master_seed):
    """Start-of-frame storage and outage indicators, (trials x frames),
    from realize_channels and evaluate_strategies' costs, with the decision
    written out here: the cheaper mode runs (ties local) if it is feasible
    and storage covers its cost; otherwise the whole frame harvests."""
    storage = np.empty((n_trials, n_frames))
    outage = np.empty((n_trials, n_frames), dtype=int)
    for t in range(n_trials):
        rng = _numpy_trial_rng(master_seed, t)
        level = 0.0
        for f in range(n_frames):
            storage[t, f] = level
            ch = realize_channels(params, rng)
            local, offload = evaluate_strategies(params, ch.eff_gain_down,
                                                 ch.gain_offload)
            chosen = offload if offload.cost < local.cost else local
            runs = chosen.feasible and chosen.cost <= level
            outage[t, f] = 0 if runs else 1
            level = (level - chosen.cost if runs else level + harvested_energy(
                params, ch.eff_gain_down, params.frame_duration))
    return storage, outage


@pytest.mark.parametrize("dist", [6.0, 10.0, 15.0])
def test_monte_carlo_matches_scalar_replay(params, dist):
    p = with_overrides(params, dist_ap_dev=dist)
    n_frames, n_trials, seed = 40, 12, 505
    mc = monte_carlo(p, n_frames, n_trials, seed)
    storage, outage = _scalar_replay(p, n_frames, n_trials, seed)
    assert mc.outage_per_frame == tuple(
        math.fsum(col) / n_trials for col in outage.T.tolist())
    assert mc.outage == math.fsum(
        math.fsum(row) / n_frames for row in outage.tolist()) / n_trials
    assert mc.mean_storage == tuple(
        math.fsum(col) / n_trials for col in storage.T.tolist())
    # the trace takes the same decisions, frame by frame
    trace = run_trace(p, n_frames, seed)
    assert [r.i_s for r in trace.records] == outage[0].tolist()


_params_strategy = st.builds(
    SystemParams,
    n_antennas=st.integers(1, 8),
    p_transmit=st.floats(0.1, 10.0),
    bw_downlink=st.floats(1e5, 1e7),
    bw_offload=st.floats(1e5, 1e7),
    noise_dev=st.floats(1e-13, 1e-9),
    noise_server=st.floats(1e-13, 1e-9),
    eh_efficiency=st.floats(0.05, 1.0),
    decode_energy_per_bit=st.floats(1e-12, 1e-9),
    rate_min=st.floats(1e3, 1e5),
    frame_duration=st.floats(0.2, 2.0),
    ops_per_bit=st.floats(10.0, 1e5),
    dev_ops_per_sec=st.floats(1e7, 1e10),
    immaturity_factor=st.floats(1e2, 1e5),
    activity_factor=st.floats(0.05, 0.95),
    fanout=st.floats(1.0, 6.0),
    thermal_noise_density=st.floats(1e-22, 1e-20),
)
_log_gains = st.lists(st.floats(-14.0, -2.0), min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(params=_params_strategy, gd_exp=_log_gains, go_exp=_log_gains)
def test_solve_frames_property(params, gd_exp, go_exp):
    n = min(len(gd_exp), len(go_exp))
    gd = 10.0 ** np.array(gd_exp[:n])
    go = 10.0 ** np.array(go_exp[:n])
    _check_claims(params, gd, go)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=_params_strategy,
       exps=st.lists(st.tuples(st.floats(-20.0, 0.0), st.floats(-20.0, 0.0)),
                     min_size=1, max_size=40))
def test_feasible_fields_are_finite_and_in_range(params, exps):
    """On every feasible element of both modes every field is finite, each
    slot lies in [0, T], p_o and each energy are non-negative, and the cost
    is finite; every infeasible element costs inf."""
    gd, go = 10.0 ** np.array(exps).T
    for arrays in solve_frames(params, gd, go):
        on = arrays.feasible
        assert (arrays.cost[~on] == math.inf).all()
        assert np.isfinite(arrays.cost[on]).all()
        for name in _FIELDS:
            value = getattr(arrays, name)[on]
            assert np.isfinite(value).all() and (value >= 0.0).all(), name
            if name.startswith("tau_"):
                assert (value <= params.frame_duration).all(), name


def _assert_storage_balances(params, n_frames, n_trials, seed):
    """Each trial's level after frame n_frames equals the full-frame harvest
    banked on its outage frames minus the cost spent on its processed
    frames, to within 8 ulps of the magnitude (the banked harvest plus the
    absolute costs): the recursion rounds once per frame, every sum here is
    exact.  The level is read as the start of frame n_frames + 1 of a longer
    run, whose first frames draw the same channels."""
    _, frames = _monte_carlo(params, n_frames + 1, n_trials, seed)
    gd, _ = _trial_gains(params, seed, n_trials, n_frames + 1)
    harvest = harvested_energy(params, gd[:, :n_frames], params.frame_duration)
    for t in range(n_trials):
        runs = frames.processed[t, :n_frames]
        banked = harvest[t][~runs].tolist()
        spent = frames.cost[t, :n_frames][runs].tolist()
        level = float(frames.storage[t, n_frames])
        magnitude = math.fsum(banked) + math.fsum(map(abs, spent))
        residual = math.fsum([level, *spent, *(-h for h in banked)])
        assert abs(residual) <= 8 * 2.0**-52 * magnitude, (t, residual, level)


@pytest.mark.parametrize("dist", [6.0, 10.0, 15.0])
def test_storage_recursion_balances_its_energy(params, dist):
    # criterion 6's trials
    _assert_storage_balances(
        with_overrides(params, ops_per_bit=1e4, dist_ap_dev=dist), 100, 250, 303)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=_params_strategy, seed=st.integers(0, 2**32 - 1))
def test_storage_recursion_balances_its_energy_over_configurations(params, seed):
    _assert_storage_balances(params, 30, 8, seed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=_params_strategy, seed=st.integers(0, 2**32 - 1))
def test_trace_slots_partition_frame_and_storage_stays_non_negative(params, seed):
    for r in run_trace(params, 30, seed).records:
        a = r.allocation
        slots = (a.tau_e, a.tau_d, a.tau_c, a.tau_o)
        assert min(slots) >= 0.0
        assert math.fsum(slots) == pytest.approx(params.frame_duration, rel=1e-9)
        assert r.e_stored_begin >= 0.0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(exps=st.lists(st.tuples(st.floats(-8.0, -3.0), st.floats(-8.0, -4.0)),
                     min_size=8, max_size=30))
def test_certify_passes_kernel_optima(exps):
    # the configuration that verify certifies by default
    params = load_params("")
    gd, go = 10.0 ** np.array(exps).T
    local, offload = solve_frames(params, gd, go)
    both = local.feasible & offload.feasible
    assume(both.any())
    gd, go = gd[both], go[both]
    report = certify(params, gd, go, *solve_frames(params, gd, go),
                     grid_pairs=(gd.size + 1) // 2)
    assert report.failures == 0, report.lines


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=_params_strategy,
       exps=st.lists(st.tuples(st.floats(-10.0, -2.0), st.floats(-10.0, -2.0)),
                     min_size=2, max_size=20))
def test_certify_passes_kernel_optima_over_configurations(params, exps):
    gd, go = 10.0 ** np.array(exps).T
    local, offload = solve_frames(params, gd, go)
    both = local.feasible & offload.feasible
    assume(both.any())
    gd, go = gd[both], go[both]
    report = certify(params, gd, go, *solve_frames(params, gd, go),
                     grid_pairs=(gd.size + 1) // 2)
    assert report.failures == 0, report.lines


@pytest.mark.parametrize("params,gains", FEW_CELL_DECODE)
def test_certify_where_the_decode_slot_spans_few_grid_cells(params, gains):
    # found by the certify property over _params_strategy: the grid oracle
    # must refine the decode slot inside the interval that meets both
    # constraints, also where no grid cell does
    gd, go = np.array([gains[0]]), np.array([gains[1]])
    local, offload = solve_frames(params, gd, go)
    assert local.feasible[0] and offload.feasible[0]
    assert certify(params, gd, go, local, offload, grid_pairs=1).failures == 0


# Two valid configurations, found by running the certify property over
# _params_strategy with more examples, under which the grid and the
# closed-form offload costs differ by more than a rounding floor of 1e-12 of
# (slope x T + transmit energy) allows.  In the first the decode energy is
# almost all of the cost, and the two costs differ by 2 ulp of it.  In the
# second 2**u - 1 is 1.4e-4 for u = bits / (B_g tau_o), so evaluating it as
# 2**u minus 1 (in the kernel's offload power and in the oracle) leaves a
# relative error of 2.6e-13 in the transmit energy, and the costs differ by
# 1.08x that floor.  offload_grid_tolerance's floor covers both: the decode
# energy, and the transmit energy before the cancellation.
_COMMON = dict(n_antennas=1, p_transmit=1.0, bw_downlink=100000.0,
               frame_duration=1.0, ops_per_bit=10.0, dev_ops_per_sec=1e7,
               immaturity_factor=100.0, fanout=1.0)


@pytest.mark.parametrize("fields,gains", [
    (dict(bw_offload=558642.0, noise_dev=2.687636644032274e-10,
          noise_server=1.4650933521752454e-10, eh_efficiency=0.125,
          decode_energy_per_bit=3.2964179266538404e-10, rate_min=6093.0,
          activity_factor=0.5, thermal_noise_density=7.179319422630034e-21),
     (1e-9, 1e-2)),
    (dict(bw_offload=5167056.0, noise_dev=1e-12,
          noise_server=5.752152823474621e-10, eh_efficiency=0.5,
          decode_energy_per_bit=9.999999999999999e-10, rate_min=1000.0,
          activity_factor=0.5, thermal_noise_density=3.8272478344698235e-21),
     (10.0 ** -7.75, 10.0 ** -9.21875)),
])
def test_certify_where_offload_rounding_needs_the_full_floor(fields, gains):
    params = SystemParams(**_COMMON, **fields)
    gd, go = np.array([gains[0]]), np.array([gains[1]])
    local, offload = solve_frames(params, gd, go)
    assert local.feasible[0] and offload.feasible[0]
    assert certify(params, gd, go, local, offload, grid_pairs=1).failures == 0
