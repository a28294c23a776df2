"""Certification of the array kernel against the scalar reference path.

solve_frames and lambert_w0_array must reproduce solve_local/solve_offload
and lambert_w0 element by element, and monte_carlo must reproduce a replay
of realize_channels + step_frame on the same trial seeds.  The kernel runs
the scalar code's operations in the same order and calls the C library
through the math module, so agreement is asserted bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swiptfog import (
    SystemParams,
    bisect_lambert,
    lambert_w0,
    load_params,
    monte_carlo,
    realize_channels,
    run_trace,
    solve_local,
    solve_offload,
    step_frame,
)
from swiptfog.allocator import lambert_w0_array, solve_frames
from swiptfog.channel import draw_gains
from swiptfog.cli import certify
from swiptfog.params import with_overrides
from swiptfog.sim import TRIAL_CHUNK


def _scalar_fields(result) -> dict:
    a, b = result.allocation, result.breakdown
    return {"tau_e": a.tau_e, "tau_d": a.tau_d, "tau_c": a.tau_c,
            "tau_o": a.tau_o, "p_o": a.p_o, "e_decode": b.e_decode,
            "e_compute": b.e_compute, "e_offload": b.e_offload,
            "e_harvest": b.e_harvest, "cost": b.cost}


def _certify(params: SystemParams, gd: np.ndarray, go: np.ndarray) -> tuple:
    """Assert solve_frames equals the scalar solvers on every pair; returns
    the feasibility masks."""
    local, offload = solve_frames(params, gd, go)
    for i, (g_d, g_o) in enumerate(zip(gd.tolist(), go.tolist())):
        for arrays, ref in ((local, solve_local(params, g_d)),
                            (offload, solve_offload(params, g_d, g_o))):
            assert bool(arrays.feasible[i]) == ref.feasible, (g_d, g_o)
            if not ref.feasible:
                assert arrays.cost[i] == math.inf
                continue
            for name, value in _scalar_fields(ref).items():
                assert float(getattr(arrays, name)[i]) == value, (name, g_d, g_o)
    return local.feasible, offload.feasible


def test_solve_frames_matches_scalar_solvers(params):
    rng = np.random.default_rng(4242)
    n = 4000
    gd = 10.0 ** rng.uniform(-14.0, -2.0, n)
    go = 10.0 ** rng.uniform(-14.0, -2.0, n)
    gd[:3] = 0.0  # no downlink capacity at all
    go[3:6] = 0.0  # no offload path
    loc, off = _certify(params, gd, go)
    # every feasibility pattern occurs: both, local only, offload only, none
    for pattern in ((True, True), (True, False), (False, True), (False, False)):
        assert np.any((loc == pattern[0]) & (off == pattern[1])), pattern


def test_solve_frames_when_local_is_never_feasible(params):
    # compute budget exactly saturated: only offloading remains
    p = with_overrides(params, ops_per_bit=50_000.0)
    rng = np.random.default_rng(7)
    gd = 10.0 ** rng.uniform(-10.0, -3.0, 500)
    go = 10.0 ** rng.uniform(-10.0, -4.0, 500)
    loc, off = _certify(p, gd, go)
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


def _criterion_1_points() -> np.ndarray:
    rng = np.random.default_rng(1001)
    branch = -1.0 / math.e
    return np.concatenate([
        branch + 10.0 ** rng.uniform(-9.0, math.log10(-branch), 2500),
        10.0 ** rng.uniform(-12.0, 6.0, 5000),
        rng.uniform(branch + 1e-9, 1e6, 2500),
    ])


def test_lambert_w0_array_matches_scalar_and_bisection():
    xs = _criterion_1_points()
    w = lambert_w0_array(xs)
    for x, wa in zip(xs.tolist(), w.tolist()):
        assert wa == lambert_w0(x)
        assert abs(wa - bisect_lambert(x)) <= 1e-11
        assert abs(wa * math.exp(wa) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_w0_array_special_points_and_domain():
    branch = -1.0 / math.e
    w = lambert_w0_array([0.0, branch - 5e-16, branch, math.e])
    assert w[0] == 0.0 and w[1] == -1.0
    assert w[2] == pytest.approx(-1.0, abs=1e-7)
    assert w[3] == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        lambert_w0_array([1.0, math.nan])
    with pytest.raises(ValueError):
        lambert_w0_array([1.0, -0.5])
    with pytest.raises(ArithmeticError):
        lambert_w0_array([1.0, math.inf])


def test_draw_gains_match_realize_channels(params):
    gd, go = draw_gains(params, np.random.default_rng(99), 50)
    rng = np.random.default_rng(99)
    for g_d, g_o in zip(gd.tolist(), go.tolist()):
        ch = realize_channels(params, rng)
        assert (ch.eff_gain_down, ch.gain_offload) == (g_d, g_o)


def _scalar_replay(params, n_frames, n_trials, master_seed):
    """Start-of-frame storage and outage indicators, (trials x frames),
    from realize_channels + step_frame."""
    storage = np.empty((n_trials, n_frames))
    outage = np.empty((n_trials, n_frames), dtype=int)
    for t in range(n_trials):
        rng = np.random.default_rng(master_seed ^ t)
        level = 0.0
        for f in range(n_frames):
            storage[t, f] = level
            rec, level = step_frame(params, realize_channels(params, rng), level, f)
            outage[t, f] = rec.i_s
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


def test_monte_carlo_chunks_are_jobs_independent(params):
    n_trials = 2 * TRIAL_CHUNK + 3  # three chunks, so jobs=2 starts a pool
    a = monte_carlo(params, n_frames=10, n_trials=n_trials, master_seed=8, jobs=1)
    b = monte_carlo(params, n_frames=10, n_trials=n_trials, master_seed=8, jobs=2)
    assert a == b


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
    _certify(params, gd, go)


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
    params = load_params("", env={})
    gd, go = 10.0 ** np.array(exps).T
    local, offload = solve_frames(params, gd, go)
    both = local.feasible & offload.feasible
    assume(both.any())
    gd, go = gd[both], go[both]
    report = certify(params, gd, go, *solve_frames(params, gd, go),
                     grid_pairs=(gd.size + 1) // 2)
    assert report.failures == 0, report.lines


# Two valid configurations, found by running the property above over
# _params_strategy, under which the grid search cannot certify a correct
# local optimum: the decode slot spans only two to five grid cells, and the
# compute slot, which scales with the decoded bits, inherits the decode
# slot's rounding to the grid.  The closed forms are optimal there; the
# oracle's tolerance (first case) or its feasible grid (second) is not.
_FINE_DECODE = dict(n_antennas=1, decode_energy_per_bit=9.991220865059318e-10,
                    immaturity_factor=100.0, fanout=1.0,
                    thermal_noise_density=8.217237442651788e-21)


@pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                   reason="grid search resolves a decode slot of a few cells "
                   "only to within one cell")
@pytest.mark.parametrize("fields,gains", [
    (dict(p_transmit=2.1358877806317444, bw_downlink=8700778.280990314,
          bw_offload=938602.7729998252, noise_dev=2.6929096027133064e-10,
          noise_server=6.108609431128086e-11, eh_efficiency=0.9490681757648523,
          rate_min=57959.68991448907, frame_duration=0.36025966827784983,
          ops_per_bit=85510.18688933871, dev_ops_per_sec=5127750042.025527,
          activity_factor=0.25609497775602563),
     (10.0 ** -5.480659568940056, 10.0 ** -6.383819408724488)),
    (dict(bw_downlink=8700253.0, bw_offload=100000.0,
          noise_dev=6.108609431128086e-11, noise_server=2.6929096027133064e-10,
          eh_efficiency=1.0, rate_min=41701.0, frame_duration=0.375,
          ops_per_bit=23382.0, dev_ops_per_sec=978584586.0,
          activity_factor=0.5),
     (1e-3, 1e-4)),
])
def test_certify_where_the_decode_slot_spans_few_grid_cells(fields, gains):
    params = SystemParams(**_FINE_DECODE, **fields)
    gd, go = np.array([gains[0]]), np.array([gains[1]])
    local, offload = solve_frames(params, gd, go)
    if not (local.feasible[0] and offload.feasible[0]):
        pytest.fail("both modes must be feasible")
    assert certify(params, gd, go, local, offload, grid_pairs=1).failures == 0
