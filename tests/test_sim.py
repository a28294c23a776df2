import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from swiptfog import sim
from swiptfog.allocator import Strategy, decide, solve_frames
from swiptfog.channel import draw_gains
from swiptfog.sim import (
    TRIAL_CHUNK,
    SweepAxis,
    _masked_mean,
    _trial_gains,
    _trial_states,
    monte_carlo,
    run_trace,
    sweep,
)


def _step(params, gd, go, e_stored):
    """One storage step with explicit gains: decide, then the update rule
    of the simulation (spend the cost, or bank the full-frame harvest)."""
    alloc, brk = decide(params, gd, go, e_stored)
    if alloc.strategy is Strategy.HARVEST_ONLY:
        return alloc, brk, e_stored + brk.e_harvest
    return alloc, brk, e_stored - brk.cost


def test_step_empty_storage_goes_to_harvest_mode(params):
    # positive costs everywhere and nothing banked yet
    p = replace(params, eh_efficiency=1e-6)
    alloc, brk, e_next = _step(p, 1e-6, 1e-7, 0.0)
    assert alloc.strategy is Strategy.HARVEST_ONLY
    assert e_next == pytest.approx(1e-6 * (1e-6 + p.noise_dev) * 1.0, rel=1e-12)
    assert e_next == brk.e_harvest


def test_step_negative_cost_banks_surplus(params):
    # strong channel: harvest dominates
    alloc, brk, e_next = _step(params, 1e-5, 1e-6, 0.0)
    assert alloc.strategy is not Strategy.HARVEST_ONLY
    assert brk.cost < 0.0
    assert e_next == pytest.approx(-brk.cost, rel=1e-15)


def test_step_exact_budget_boundary_processes_to_zero(params):
    p = replace(params, eh_efficiency=1e-6)
    # rich budget to read off the cost
    alloc0, brk0, _ = _step(p, 1e-6, 1e-7, 1.0)
    assert alloc0.strategy is not Strategy.HARVEST_ONLY and brk0.cost > 0.0
    alloc, _, e_next = _step(p, 1e-6, 1e-7, brk0.cost)
    assert alloc.strategy is not Strategy.HARVEST_ONLY
    assert e_next == 0.0


def test_trace_length_one(params):
    trace = run_trace(params, 1, seed=5)
    assert len(trace.records) == 1
    assert trace.records[0].e_stored_begin == 0.0
    assert trace.outage in (0.0, 1.0)


def test_trace_determinism(params):
    a = run_trace(params, 40, seed=123)
    b = run_trace(params, 40, seed=123)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    assert a.mean_cost == b.mean_cost and a.outage == b.outage


def test_trace_storage_never_negative(params):
    for seed in range(10):
        for dist in (6.0, 15.0):
            p = replace(params, dist_ap_dev=dist)
            trace = run_trace(p, 60, seed=seed)
            assert all(r.e_stored_begin >= 0.0 for r in trace.records)


def test_trace_recursion_replay_is_exact(params):
    # replaying the storage update from the records reproduces every level
    for dist in (6.0, 10.0, 15.0):
        p = replace(params, dist_ap_dev=dist)
        trace = run_trace(p, 80, seed=9)
        level = 0.0
        for rec in trace.records:
            assert rec.e_stored_begin == level  # bit-exact
            if rec.i_s:
                level = level + rec.e_harvest
            else:
                level = level - rec.cost


def test_trace_storage_grows_at_short_range(params):
    # strongly energy-positive regime: the stored level should trend up
    p = replace(params, dist_ap_dev=6.0)
    mc = monte_carlo(p, n_frames=60, n_trials=50, master_seed=17)
    s = mc.mean_storage
    assert s[-1] > s[len(s) // 2] > s[4]


def test_trace_storage_grows_at_midrange_with_literal_power(params):
    # with the per-antenna power convention the balance point moves out and
    # the stored level climbs steadily even at 10 m
    p = replace(params, dist_ap_dev=10.0, normalize_beamforming=False)
    mc = monte_carlo(p, n_frames=60, n_trials=50, master_seed=17)
    s = mc.mean_storage
    assert s[-1] > s[len(s) // 2] > s[4]


def test_monte_carlo_single_trial_matches_trace(params):
    # run_trace(seed) draws the channels of trial 0 of master seed seed
    mc = monte_carlo(params, n_frames=30, n_trials=1, master_seed=77)
    trace = run_trace(params, 30, seed=77)
    assert mc.outage == trace.outage
    assert mc.mean_storage == tuple(r.e_stored_begin for r in trace.records)


@pytest.mark.parametrize("seeds", [(2, 3), (302, 303)])
def test_neighbouring_master_seeds_run_different_trials(params, seeds):
    # stream 1 seeded trial t with master_seed ^ t: with an even trial count,
    # master seeds 2k and 2k + 1 ran the same trials to the same outage
    p = replace(params, dist_ap_dev=15.0, ops_per_bit=1e4)
    a, b = (monte_carlo(p, n_frames=40, n_trials=20, master_seed=s)
            for s in seeds)
    assert a.outage != b.outage
    assert a.mean_storage != b.mean_storage


def test_trial_seeds_are_spawned_children_and_do_not_collide(params):
    for master in (5, 303):
        children = np.random.SeedSequence(master).spawn(4)
        gd, go = _trial_gains(params, master, 4, 3)
        for t, child in enumerate(children):
            assert _trial_states(master, 1, t)[0] == np.random.PCG64(child).state
            want_gd, want_go = draw_gains(params, np.random.default_rng(child), 3)
            assert gd[t].tolist() == want_gd.tolist()
            assert go[t].tolist() == want_go.tolist()
    # the list seed [m, t] would map [2**32 + 5, 0] and [5, 1] to one stream
    firsts = [g for m in (5, 2**32 + 5)
              for g in _trial_gains(params, m, 3, 1)[0][:, 0].tolist()]
    assert len(set(firsts)) == len(firsts) == 6


@pytest.mark.parametrize("master", [0, 5, 256, 303, 1792, 2**32 - 1,
                                    2**32 + 5, 2**70 + 11, 2**96 + 7,
                                    2**128 - 1, 2**128 + 5, 2**200 + 9])
def test_trial_states_equal_numpy_seeding(master):
    # one- to five- and seven-word master seeds: past four words each run
    # word adds four hashes before the spawn-key word's; trials inside and
    # at the edges of the first TRIAL_CHUNK-sized chunks
    states = _trial_states(master, 250)
    assert len(states) == 250
    for t in (0, 1, 31, 32, 33, 249):
        want = np.random.PCG64(np.random.SeedSequence(master, spawn_key=(t,))).state
        assert states[t] == want, t
        assert _trial_states(master, 1, t) == [want]


def test_trial_states_reject_indices_past_one_seed_word():
    last = 2**32 - 1
    assert _trial_states(9, 1, last)[0] == np.random.PCG64(
        np.random.SeedSequence(9, spawn_key=(last,))).state
    for first, n in ((last, 2), (2**32, 1), (-1, 1)):
        with pytest.raises(ValueError, match="trial indices"):
            _trial_states(9, n, first)
    with pytest.raises(ValueError, match="master_seed"):
        _trial_states(-1, 1)


def test_more_trials_extend_a_shorter_run(params, monkeypatch):
    # the gain arrays monte_carlo solves, across trial chunks
    seen = []
    simulate = sim._simulate
    monkeypatch.setattr(sim, "_simulate", lambda p, gd, go:
                        seen.append((gd, go)) or simulate(p, gd, go))
    k = TRIAL_CHUNK + 3
    monte_carlo(params, n_frames=10, n_trials=k, master_seed=41)
    monte_carlo(params, n_frames=10, n_trials=2 * TRIAL_CHUNK + 5,
                master_seed=41)
    (gd_k, go_k), (gd_n, go_n) = seen
    assert np.array_equal(gd_n[:k], gd_k)
    assert np.array_equal(go_n[:k], go_k)


def _chunked_results(params):
    n_trials = 2 * TRIAL_CHUNK + 3
    mc = monte_carlo(params, n_frames=12, n_trials=n_trials, master_seed=8)
    rows = [sweep(params, axis, values, n_frames=12, n_trials=n_trials,
                  master_seed=8)
            for axis, values in ((SweepAxis.DIST_AP_DEV, [4.0, 10.0, 15.0]),
                                 (SweepAxis.DIST_DEV_SERVER, [5.0, 20.0]))]
    return mc, rows


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_results_do_not_depend_on_trial_chunk(params, monkeypatch, chunk):
    # a chunk's normals buffer has the bits of per-trial draws, so the
    # chunk size changes nothing that monte_carlo or sweep returns
    want = _chunked_results(params)
    monkeypatch.setattr(sim, "TRIAL_CHUNK", chunk)
    assert _chunked_results(params) == want


def test_trial_seed_permutation_leaves_means_unchanged(params):
    # aggregates use exact summation, so trial order cannot matter
    seeds = list(range(11, 17))
    outage = {s: run_trace(params, 15, s).outage for s in seeds}
    for perm_seed in (0, 1):
        rng = np.random.default_rng(perm_seed)
        order = list(seeds)
        rng.shuffle(order)
        fwd = math.fsum(outage[s] for s in seeds) / len(seeds)
        shuffled = math.fsum(outage[s] for s in order) / len(seeds)
        assert fwd == shuffled


def test_monte_carlo_memory_stays_bounded(params):
    # solve_frames holds only the capacity across lambert_w0, which iterates
    # on its argument, and stores no formed field; the means read through
    # memoryviews: one 100 x 250 run peaks at 2.67 MiB, under 2.9 MiB
    p = replace(params, ops_per_bit=1e4, dist_ap_dev=15.0)
    tracemalloc.start()
    try:
        monte_carlo(p, 100, 250, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.9 * 2 ** 20, f"{peak} B"


def test_masked_mean_has_the_bits_of_one_fsum_of_the_selection(params):
    # fsum rounds the exact sum once, so reading the gather through a
    # memoryview keeps the bits of math.fsum(values[mask].tolist()) / count
    rng = np.random.default_rng(43)
    p = replace(params, dist_ap_dev=40.0)
    local, offload = solve_frames(p, *_trial_gains(p, 256, 250, 100))
    assert 0 < np.count_nonzero(offload.feasible) < offload.feasible.size
    wide = 10.0 ** rng.uniform(-20.0, -3.0, (250, 100))
    assert 0 in local.e_compute.strides  # a scalar, broadcast
    cases = [(local.e_compute, local.feasible),
             (local.e_compute, offload.feasible),
             (local.e_harvest, local.feasible),
             (offload.cost, offload.feasible),
             (wide, np.zeros(wide.shape, dtype=bool)),
             (wide, np.ones(wide.shape, dtype=bool)),
             (wide, rng.random(wide.shape) < 0.3)]
    for values, mask in cases:
        count = int(np.count_nonzero(mask))
        got = _masked_mean(values, mask)
        if count == 0:
            assert math.isnan(got)
            continue
        want = math.fsum(values[mask].tolist()) / count
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_outage_monotone_in_distance(params):
    outages = []
    for dist in (6.0, 10.0, 15.0):
        p = replace(params, dist_ap_dev=dist)
        mc = monte_carlo(p, n_frames=100, n_trials=200, master_seed=29)
        outages.append(mc.outage)
    assert outages[0] <= outages[1] <= outages[2]
    assert 0.0 <= outages[0] <= 1.0


def test_sweep_offload_cost_constant_in_ops(params):
    # the offload side never touches the per-bit op count
    rows = sweep(params, SweepAxis.OPS_PER_BIT, [1e2, 1e3, 1e4],
                 n_frames=40, n_trials=5, master_seed=31)
    costs = [r.averages.mean_cost_offload for r in rows]
    assert costs[0] == pytest.approx(costs[1], rel=1e-12)
    assert costs[0] == pytest.approx(costs[2], rel=1e-12)
    e_d = [r.averages.mean_e_decode for r in rows]
    assert e_d[0] == pytest.approx(e_d[2], rel=1e-12)
    e_off = [r.averages.mean_e_offload for r in rows]
    assert e_off[0] == pytest.approx(e_off[2], rel=1e-12)
    # while the compute energy scales linearly with the op count
    e_c = [r.averages.mean_e_compute for r in rows]
    assert e_c[1] == pytest.approx(10.0 * e_c[0], rel=1e-9)
    assert e_c[2] == pytest.approx(100.0 * e_c[0], rel=1e-9)


def test_sweep_consumed_flat_harvest_falls_with_distance(params):
    rows = sweep(params, SweepAxis.DIST_AP_DEV, [4.0, 8.0, 12.0],
                 n_frames=40, n_trials=10, master_seed=37)
    cons = [r.averages.mean_e_decode + r.averages.mean_e_compute for r in rows]
    assert cons[0] == pytest.approx(cons[-1], rel=1e-9)
    harv = [r.averages.mean_e_harvest_local for r in rows]
    assert harv[0] > harv[1] > harv[2]


@pytest.mark.parametrize("n_frames, seed, message", [
    (0, 1, "n_frames must be >= 1"), (5, -1, "seed must be non-negative")])
def test_run_trace_rejects_bad_length_or_seed(params, n_frames, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_trace(params, n_frames, seed)


def test_run_trace_rejects_an_overflowing_storage_level(params):
    # nothing is feasible and every frame banks about 6e307 J, so the level
    # overflows within five frames; an inf level would run the infeasible
    # frames (inf <= inf)
    p = replace(params, noise_dev=1e308, dist_dev_server=1e9)
    with pytest.raises(ValueError, match="stored energy overflows"):
        run_trace(p, 5, 0)


@pytest.mark.parametrize("n_frames, n_trials, message", [
    (5, 0, "n_trials must be >= 1"), (0, 5, "n_frames must be >= 1")])
def test_monte_carlo_rejects_empty_runs(params, n_frames, n_trials, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        monte_carlo(params, n_frames, n_trials, 1)


def test_sweep_rejects_empty_values(params):
    with pytest.raises(ValueError):
        sweep(params, SweepAxis.OPS_PER_BIT, [], 10, 2, 1)


def test_sweep_validates_every_value_before_simulating(params, monkeypatch):
    calls = []
    monkeypatch.setattr(sim, "_monte_carlo",
                        lambda *args: calls.append(args) or pytest.fail())
    with pytest.raises(ValueError, match="dist_ap_dev must be at least 1.0"):
        sweep(params, SweepAxis.DIST_AP_DEV, [6.0, 0.5], 10, 2, 1)
    assert calls == []

