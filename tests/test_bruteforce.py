import math

import numpy as np
import pytest

from swiptfog import (
    GridSpec,
    bisect_lambert,
    brute_local,
    brute_offload,
    local_grid_tolerance,
    offload_grid_tolerance,
    solve_local,
    solve_offload,
)
from swiptfog.bruteforce import _local_cost

from swiptfog.allocator import solve_frames

from conftest import FEW_CELL_DECODE, random_gain_pairs


def brute_local_grid2d(params, gd, spec):
    """Plain full 2-D scan of the local program (no reduction, no refine),
    on a coarse grid; validates the oracle's compute-slot reduction."""
    tee, step = params.frame_duration, spec.resolution
    ax = step * np.arange(0, int(math.floor(tee / step)) + 1)
    tau_d, tau_c = ax[:, None], ax[None, :]
    l2 = math.log2(1.0 + gd / params.noise_dev)
    rate = params.bw_downlink * (tau_d / tee) * l2
    ops_ok = tau_c * params.dev_ops_per_sec >= params.ops_per_bit * rate * tee
    mask = (rate >= params.rate_min) & ops_ok & (tau_d + tau_c <= tee)
    hr = params.eh_efficiency * (gd + params.noise_dev)
    cost = _local_cost(params, l2, hr, tau_d, tau_c, rate,
                       np.empty(mask.shape), np.empty(mask.shape))
    cost[~mask] = np.inf
    i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
    return float(ax[i]), float(ax[j]), float(cost[i, j])


def brute_offload_grid2d(params, gd, go, spec, power_grid):
    """Full 2-D scan over (offload slot, transmit energy in J from
    power_grid), on a coarse grid; returns the best (tau_o, p_o, cost) and
    validates the oracle's energy elimination."""
    tee, step, bits = params.frame_duration, spec.resolution, params.bits_per_frame
    l2 = math.log2(1.0 + gd / params.noise_dev)
    tau_d = bits / (params.bw_downlink * l2)
    tau_o = step * np.arange(1, int(math.floor((tee - tau_d) / step)) + 1)[:, None]
    lam = np.asarray(power_grid, dtype=float)[None, :]
    delivered = (params.bw_offload * tau_o
                 * np.log2(1.0 + go * lam / (tau_o * params.noise_server)))
    e_dec = params.decode_energy_per_bit * params.bw_downlink * l2 * tau_d
    e_hrv = params.eh_efficiency * (gd + params.noise_dev) * (tee - tau_d - tau_o)
    cost = np.where(delivered >= bits, e_dec + lam - e_hrv, np.inf)
    i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
    to = float(tau_o[i, 0])
    return to, float(lam[0, j] / to), float(cost[i, j])


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=0.0)
    with pytest.raises(ValueError):
        GridSpec(refine_iters=-1)
    spec = GridSpec.for_frame(2.0)
    assert spec.resolution == pytest.approx(2e-4)


def test_bisect_reference_points():
    assert bisect_lambert(0.0) == pytest.approx(0.0, abs=1e-13)
    assert bisect_lambert(math.e) == pytest.approx(1.0, abs=1e-13)
    assert bisect_lambert(1.0) == pytest.approx(0.567143290409784, abs=1e-13)
    assert bisect_lambert(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-13)
    with pytest.raises(ValueError):
        bisect_lambert(-1.0)


def test_local_grid_never_beats_closed_form(params):
    rng = np.random.default_rng(0)
    spec = GridSpec.for_frame(params.frame_duration)
    for gd, _ in random_gain_pairs(rng, 20, params):
        closed = solve_local(params, gd)
        _, _, cost_grid = brute_local(params, gd, spec)
        tol = local_grid_tolerance(params, gd, spec)
        assert cost_grid >= closed.cost - tol
        assert abs(cost_grid - closed.cost) <= tol


def test_local_grid_argmin_near_closed_form(params):
    spec = GridSpec(resolution=1e-4, refine_iters=0)
    gd = (2.0 ** 10 - 1.0) * params.noise_dev  # decode slot lands at 1e-3
    tau_d, tau_c, _ = brute_local(params, gd, spec)
    closed = solve_local(params, gd).allocation
    assert abs(tau_d - closed.tau_d) <= spec.resolution
    assert abs(tau_c - closed.tau_c) <= 2 * spec.resolution


def test_local_grid_refinement_never_worse(params):
    gd = 1e-6
    coarse = brute_local(params, gd, GridSpec(resolution=2e-3, refine_iters=0))[2]
    fine = brute_local(params, gd, GridSpec(resolution=1e-3, refine_iters=0))[2]
    refined = brute_local(params, gd, GridSpec(resolution=1e-3, refine_iters=40))[2]
    assert fine <= coarse + 1e-18
    assert refined <= fine + 1e-18


def test_local_reduction_matches_full_2d_scan(params):
    # the compute-slot elimination must reproduce the plain 2-D grid minimum
    spec = GridSpec(resolution=2.5e-3, refine_iters=0)
    for gd in (1e-7, 1e-6, 5e-6):
        d1, c1, cost1 = brute_local(params, gd, spec)
        d2, c2, cost2 = brute_local_grid2d(params, gd, spec)
        assert cost1 == pytest.approx(cost2, rel=1e-12)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert c1 == pytest.approx(c2, abs=1e-12)


def test_local_empty_grid_raises(params):
    from swiptfog.params import with_overrides
    # rate floor impossible at any decode slot of this gain
    p = with_overrides(params, rate_min=1e12)
    with pytest.raises(ValueError, match="feasible"):
        brute_local(p, 1e-6, GridSpec(resolution=1e-2, refine_iters=0))


def test_offload_grid_never_beats_closed_form(params):
    rng = np.random.default_rng(2)
    spec = GridSpec.for_frame(params.frame_duration)
    for gd, go in random_gain_pairs(rng, 20, params):
        closed = solve_offload(params, gd, go)
        tau_o, _, cost_grid = brute_offload(params, gd, go, spec)
        tol = offload_grid_tolerance(params, gd, go, spec, tau_o)
        assert cost_grid >= closed.cost - tol
        assert abs(cost_grid - closed.cost) <= tol


def test_offload_grid_slot_at_root_zero(params):
    # instance where the root argument collapses to zero: slot is known
    go = 1e-6
    gd = params.noise_server / (params.eh_efficiency * go) - params.noise_dev
    spec = GridSpec(resolution=1e-4, refine_iters=0)
    tau_o, _, _ = brute_offload(params, gd, go, spec)
    expected = params.bits_per_frame * math.log(2.0) / params.bw_offload
    assert abs(tau_o - expected) <= spec.resolution


def test_offload_energy_elimination_matches_2d_scan(params):
    # coarse 2-D sweep over (slot, energy) agrees with the eliminated form
    gd, go = 2e-6, 5e-7
    lam = np.geomspace(1e-9, 1e-3, 4000)
    spec1 = GridSpec(resolution=5e-3, refine_iters=0)
    to1, _, cost1 = brute_offload(params, gd, go, spec1)
    to2, _, cost2 = brute_offload_grid2d(params, gd, go, spec1, lam)
    assert to2 == pytest.approx(to1, abs=2.5 * spec1.resolution)
    # 2-D scan can't do better than the eliminated scan, and the coarse
    # energy axis can only cost it a little
    assert cost2 >= cost1 - 1e-15
    assert cost2 <= cost1 + 0.01 * abs(cost1)


def test_offload_constraint_surface_is_concave(params):
    # deliverable bits as a function of (slot, energy): midpoint dominates
    rng = np.random.default_rng(3)
    go = 5e-7

    def delivered(tau_o, lam):
        return (params.bw_offload * tau_o
                * math.log2(1.0 + go * lam / (tau_o * params.noise_server)))

    for _ in range(300):
        t1, t2 = rng.uniform(1e-3, 0.9, 2)
        l1, l2 = 10.0 ** rng.uniform(-9, -3, 2)
        mid = delivered(0.5 * (t1 + t2), 0.5 * (l1 + l2))
        assert mid >= 0.5 * (delivered(t1, l1) + delivered(t2, l2)) - 1e-9


def _feasible_pairs(params, rng, n, extra=()):
    """Wide log-uniform gain pairs under which both modes are feasible, plus
    the extra pairs."""
    gd = 10.0 ** rng.uniform(-10.0, -2.0, 40 * n)
    go = 10.0 ** rng.uniform(-10.0, -2.0, 40 * n)
    local, offload = solve_frames(params, gd, go)
    both = np.flatnonzero(local.feasible & offload.feasible)[:n]
    return (np.concatenate([gd[both], [g for g, _ in extra]]),
            np.concatenate([go[both], [g for _, g in extra]]))


@pytest.mark.parametrize("case", ["default", "few_cell"])
def test_block_calls_equal_one_element_calls_bit_for_bit(params, case):
    # wide gains at the default parameters, and a block whose decode slots
    # span a few grid cells, where most pairs have no feasible grid cell:
    # refined inside the feasible decode interval, they raise without the
    # refine, so the block without the refine holds the other pairs
    rng = np.random.default_rng(11)
    if case == "default":
        gd, go = _feasible_pairs(params, rng, 24)
    else:
        params, pair = FEW_CELL_DECODE[0]
        gd, go = _feasible_pairs(params, rng, 12, extra=[pair])
    for refine_iters in (0, 40, 60):
        spec = GridSpec.for_frame(params.frame_duration, refine_iters)
        singles, keep = [], []
        for g, h in zip(gd.tolist(), go.tolist()):
            try:
                singles.append(brute_local(params, g, spec)
                               + brute_offload(params, g, h, spec))
            except ValueError:
                assert refine_iters == 0
            keep.append(len(singles) > sum(keep))
        assert all(keep) == (case == "default" or refine_iters > 0)
        assert all(type(x) is float for x in singles[0])
        g_kept, h_kept = gd[keep], go[keep]
        for order in (np.arange(g_kept.size), rng.permutation(g_kept.size)):
            block = (brute_local(params, g_kept[order], spec)
                     + brute_offload(params, g_kept[order], h_kept[order], spec))
            for got, want in zip(block, np.array(singles)[order].T):
                assert got.shape == g_kept.shape
                assert got.tolist() == want.tolist()


def test_block_with_an_empty_grid_raises_as_one_element_does(params):
    spec = GridSpec.for_frame(params.frame_duration)
    gd, go = np.array([1e-6, 0.0, 2e-6]), np.array([1e-7, 1e-7, 0.0])
    with pytest.raises(ValueError, match="zero channel capacity"):
        brute_local(params, gd, spec)
    with pytest.raises(ValueError, match="gain_offload must be positive"):
        brute_offload(params, gd, go, spec)
    few, (g, h) = FEW_CELL_DECODE[1]
    no_refine = GridSpec.for_frame(few.frame_duration, 0)
    for block in (g, np.array([g, 2 * g])):
        with pytest.raises(ValueError,
                           match="empty feasible grid for the local program"):
            brute_local(few, block, no_refine)
    with pytest.raises(ValueError, match="rate floor exceeds capacity"):
        brute_offload(params, gd[:2], go[:2], spec)


def test_offload_empty_grid_raises(params):
    from swiptfog.params import with_overrides
    p = with_overrides(params, rate_min=1e12)
    with pytest.raises(ValueError, match="feasible"):
        brute_offload(p, 1e-6, 1e-7, GridSpec(resolution=1e-2, refine_iters=0))


def test_oracle_objective_matches_energy_composition(params):
    # the vectorized grid objective must agree with the energy primitives
    from swiptfog import compute_energy, decode_energy, harvested_energy, throughput
    rng = np.random.default_rng(4)
    for _ in range(100):
        gd = 10.0 ** rng.uniform(-8, -4)
        tau_d = rng.uniform(1e-4, 0.4)
        tau_c = rng.uniform(1e-4, 0.4)
        l2 = math.log2(1.0 + gd / params.noise_dev)
        via_grid = float(_local_cost(
            params, l2, params.eh_efficiency * (gd + params.noise_dev),
            tau_d, tau_c, params.bw_downlink * (tau_d / params.frame_duration) * l2))
        direct = (decode_energy(params, gd, tau_d)
                  + compute_energy(params, throughput(params, gd, tau_d))
                  - harvested_energy(params, gd,
                                     params.frame_duration - tau_d - tau_c))
        assert via_grid == pytest.approx(direct, rel=1e-12)
