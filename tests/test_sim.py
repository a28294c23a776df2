import math

import numpy as np
import pytest

from swiptfog import (
    ChannelRealization,
    Strategy,
    monte_carlo,
    run_trace,
    step_frame,
    sweep,
)
from swiptfog.params import with_overrides
from swiptfog.sim import SweepAxis, sweep_csv_rows, trace_records_csv_rows


def _fixed_channel(gd: float, go: float) -> ChannelRealization:
    return ChannelRealization(h=np.array([1.0 + 0j]), g=complex(math.sqrt(go)),
                              eff_gain_down=gd, gain_offload=go)


def test_step_empty_storage_goes_to_harvest_mode(params):
    # positive costs everywhere and nothing banked yet
    p = with_overrides(params, eh_efficiency=1e-6)
    ch = _fixed_channel(1e-6, 1e-7)
    rec, e_next = step_frame(p, ch, 0.0)
    assert rec.i_s == 1
    assert rec.strategy is Strategy.HARVEST_ONLY
    assert e_next == pytest.approx(1e-6 * (1e-6 + p.noise_dev) * 1.0, rel=1e-12)
    assert e_next == rec.e_harvest


def test_step_negative_cost_banks_surplus(params):
    ch = _fixed_channel(1e-5, 1e-6)  # strong channel: harvest dominates
    rec, e_next = step_frame(params, ch, 0.0)
    assert rec.i_s == 0
    assert rec.cost < 0.0
    assert e_next == pytest.approx(-rec.cost, rel=1e-15)


def test_step_exact_budget_boundary_processes_to_zero(params):
    p = with_overrides(params, eh_efficiency=1e-6)
    ch = _fixed_channel(1e-6, 1e-7)
    rec0, _ = step_frame(p, ch, 1.0)  # rich budget to read off the cost
    assert rec0.i_s == 0 and rec0.cost > 0.0
    rec, e_next = step_frame(p, ch, rec0.cost)
    assert rec.i_s == 0
    assert e_next == 0.0


def test_step_rejects_negative_storage(params):
    with pytest.raises(ValueError):
        step_frame(params, _fixed_channel(1e-6, 1e-7), -1e-12)


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
            p = with_overrides(params, dist_ap_dev=dist)
            trace = run_trace(p, 60, seed=seed)
            assert all(r.e_stored_begin >= 0.0 for r in trace.records)


def test_trace_recursion_replay_is_exact(params):
    # replaying the storage update from the records reproduces every level
    for dist in (6.0, 10.0, 15.0):
        p = with_overrides(params, dist_ap_dev=dist)
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
    p = with_overrides(params, dist_ap_dev=6.0)
    mc = monte_carlo(p, n_frames=60, n_trials=50, master_seed=17)
    s = mc.mean_storage
    assert s[-1] > s[len(s) // 2] > s[4]


def test_trace_storage_grows_at_midrange_with_literal_power(params):
    # with the per-antenna power convention the balance point moves out and
    # the stored level climbs steadily even at 10 m
    p = with_overrides(params, dist_ap_dev=10.0, normalize_beamforming=False)
    mc = monte_carlo(p, n_frames=60, n_trials=50, master_seed=17)
    s = mc.mean_storage
    assert s[-1] > s[len(s) // 2] > s[4]


def test_monte_carlo_single_trial_matches_trace(params):
    mc = monte_carlo(params, n_frames=30, n_trials=1, master_seed=77)
    trace = run_trace(params, 30, seed=77 ^ 0)
    assert mc.outage == trace.outage
    assert mc.mean_storage == tuple(r.e_stored_begin for r in trace.records)


def test_monte_carlo_jobs_do_not_change_results(params):
    a = monte_carlo(params, n_frames=20, n_trials=8, master_seed=3, jobs=1)
    b = monte_carlo(params, n_frames=20, n_trials=8, master_seed=3, jobs=2)
    assert a.mean_storage == b.mean_storage
    assert a.outage_per_frame == b.outage_per_frame
    assert a.outage == b.outage and a.outage_ci == b.outage_ci
    assert a.averages == b.averages


def test_trial_seed_permutation_leaves_means_unchanged(params):
    # aggregates use exact summation, so trial order cannot matter
    seeds = [11 ^ t for t in range(6)]
    outage = {s: run_trace(params, 15, s).outage for s in seeds}
    for perm_seed in (0, 1):
        rng = np.random.default_rng(perm_seed)
        order = list(seeds)
        rng.shuffle(order)
        fwd = math.fsum(outage[s] for s in seeds) / len(seeds)
        shuffled = math.fsum(outage[s] for s in order) / len(seeds)
        assert fwd == shuffled


def test_outage_monotone_in_distance(params):
    outages = []
    for dist in (6.0, 10.0, 15.0):
        p = with_overrides(params, dist_ap_dev=dist)
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


def test_sweep_rejects_empty_values(params):
    with pytest.raises(ValueError):
        sweep(params, SweepAxis.OPS_PER_BIT, [], 10, 2, 1)


def test_csv_row_shapes(params):
    trace = run_trace(params, 5, seed=1)
    rows = trace_records_csv_rows(trace)
    assert len(rows) == 5 and len(rows[0]) == 11
    srows = sweep_csv_rows(sweep(params, SweepAxis.OPS_PER_BIT, [1e3],
                                 n_frames=5, n_trials=2, master_seed=1))
    assert len(srows) == 1 and len(srows[0]) == 14
