"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.  Tolerances are fixed here, not
calibrated at run time."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from swiptfog.allocator import (
    Strategy,
    _affordable,
    choose_modes,
    harvest_only_result,
    lambert_w0,
    mode_rule_sides,
    solve_frames,
    solve_local,
    solve_offload,
)
from swiptfog.bruteforce import (
    GridSpec,
    bisect_lambert,
    brute_local,
    brute_offload,
    local_grid_tolerance,
    offload_grid_tolerance,
)
from swiptfog.energy import offload_bits
from swiptfog.params import SystemParams, load_params
from swiptfog.sim import SweepAxis, monte_carlo, run_trace, sweep

from conftest import random_gain_pairs


def _params() -> SystemParams:
    return load_params("")


def _report(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_root_solver():
    rng = np.random.default_rng(1001)
    branch = -1.0 / math.e
    xs = np.concatenate([
        branch + 10.0 ** rng.uniform(-9.0, math.log10(-branch), 2500),
        10.0 ** rng.uniform(-12.0, 6.0, 5000),
        rng.uniform(branch + 1e-9, 1e6, 2500),
    ])
    assert len(xs) == 10_000
    t0 = time.perf_counter()
    ws = lambert_w0(xs)  # one element-wise call over all 10^4 points
    max_gap = float(np.max(np.abs(ws - bisect_lambert(xs))))  # one oracle call
    max_resid = 0.0
    for x, w in zip(xs.tolist(), ws.tolist()):
        max_resid = max(max_resid, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    elapsed = time.perf_counter() - t0
    ok = max_resid <= 1e-12 and max_gap <= 1e-11 and elapsed < 1.0
    _report(1, "root solver", ok,
            f"residual {max_resid:.2e} (<=1e-12), oracle gap {max_gap:.2e} "
            f"(<=1e-11), {elapsed:.2f} s (<1 s), 10^4 points")
    assert max_resid <= 1e-12
    assert max_gap <= 1e-11
    assert elapsed < 1.0


def test_criterion_2_closed_forms_match_grid_search():
    p = _params()
    spec = GridSpec.for_frame(p.frame_duration)
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    worst_local = worst_off = worst_rate = 0.0
    for gd, go in random_gain_pairs(rng, 100, p):
        local = solve_local(p, gd)
        _, _, grid_cost = brute_local(p, gd, spec)
        tol = local_grid_tolerance(p, gd, spec)
        dev = abs(local.cost - grid_cost)
        worst_local = max(worst_local, dev / tol)
        assert dev <= tol, f"local gd={gd!r}: dev {dev!r} > tol {tol!r}"
        assert grid_cost >= local.cost - tol  # grid can never beat the optimum

        off = solve_offload(p, gd, go)
        tau_o, _, grid_cost_o = brute_offload(p, gd, go, spec)
        tol_o = offload_grid_tolerance(p, gd, go, spec, tau_o)
        dev_o = abs(off.cost - grid_cost_o)
        worst_off = max(worst_off, dev_o / tol_o)
        assert dev_o <= tol_o, f"offload gd={gd!r} go={go!r}: {dev_o!r} > {tol_o!r}"
        assert grid_cost_o >= off.cost - tol_o

        a = off.allocation
        delivered = offload_bits(p, go, a.p_o, a.tau_o)
        rate_dev = abs(delivered - p.bits_per_frame) / p.bits_per_frame
        worst_rate = max(worst_rate, rate_dev)
        assert rate_dev <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(2, "closed forms vs grid", ok,
            f"100+100 instances, worst dev {worst_local:.3f}x/{worst_off:.3f}x "
            f"of tolerance, worst bit-constraint dev {worst_rate:.1e} "
            f"(<=1e-9), {elapsed:.1f} s (<60 s)")
    assert elapsed < 60.0


def test_criterion_3_decision_rule_consistency():
    p0 = _params()
    rng = np.random.default_rng(3003)
    agree = 0
    total = 1000
    done = 0
    while done < total:
        k = 10.0 ** rng.uniform(2.0, 4.5)
        p = replace(p0, ops_per_bit=k)
        gd = np.array([10.0 ** rng.uniform(-8.0, -3.0)])
        go = np.array([10.0 ** rng.uniform(-8.0, -4.0)])
        local, offload = solve_frames(p, gd, go)
        if not (local.feasible[0] and offload.feasible[0]):
            continue
        done += 1
        offloads = choose_modes(p, local, offload)
        lhs, rhs = mode_rule_sides(p, offload)
        if offloads[0] == (lhs > rhs)[0]:
            agree += 1
    ok = agree == total
    _report(3, "decision rule", ok, f"{agree}/{total} instances agree "
            f"with the closed-form inequality (need 100%)")
    assert agree == total


def test_criterion_4_op_count_crossover():
    p = _params()  # d_t = 6 m, d_s = 10 m defaults
    t0 = time.perf_counter()
    ks = [500.0 * i for i in range(1, 41)]
    rows = sweep(p, SweepAxis.OPS_PER_BIT, ks, n_frames=100, n_trials=10,
                 master_seed=101)
    kstar = None
    for r in rows:  # 1000 draws per value; offload mean is K-invariant
        if r.averages.mean_cost_offload < r.averages.mean_cost_local:
            kstar = r.value
            break
    elapsed = time.perf_counter() - t0
    ok = kstar is not None and 2500.0 <= kstar <= 10000.0 and elapsed < 120.0
    _report(4, "op-count crossover", ok,
            f"mean offload cost first beats local at K*={kstar} "
            f"(band [2500, 10000]), {elapsed:.1f} s (<120 s)")
    assert kstar is not None
    assert 2500.0 <= kstar <= 10000.0
    assert elapsed < 120.0


def test_criterion_5_distance_coverage_crossover():
    p = replace(_params(), ops_per_bit=1e4)
    dts = [float(d) for d in range(2, 16)]
    rows = sweep(p, SweepAxis.DIST_AP_DEV, dts, n_frames=100, n_trials=10,
                 master_seed=202)
    covered = {}
    for r in rows:
        a = r.averages
        covered[r.value] = (
            a.mean_e_harvest_local >= a.mean_e_decode + a.mean_e_compute,
            a.mean_e_harvest_offload >= a.mean_e_decode + a.mean_e_offload,
        )
    near_ok = all(all(covered[d]) for d in dts if d <= 7.0)
    far_ok = all(not any(covered[d]) for d in dts if d >= 12.0)
    crossover = max((d for d in dts if covered[d][0]), default=None)
    band_ok = crossover is not None and 7.0 <= crossover <= 12.0
    ok = near_ok and far_ok and band_ok
    _report(5, "distance coverage", ok,
            f"harvest covers consumption up to {crossover} m "
            f"(band [7, 12]); covered at <=7 m: {near_ok}; "
            f"uncovered at >=12 m: {far_ok}")
    assert near_ok and far_ok and band_ok


def test_criterion_6_outage_statistics():
    p = replace(_params(), ops_per_bit=1e4)
    t0 = time.perf_counter()
    outages = {}
    for d in (6.0, 10.0, 15.0):
        pd = replace(p, dist_ap_dev=d)
        mc = monte_carlo(pd, n_frames=100, n_trials=250, master_seed=303)
        outages[d] = mc.outage
    elapsed = time.perf_counter() - t0
    near_ok = outages[6.0] < 0.05
    far_ok = 0.40 <= outages[15.0] <= 0.70
    mono_ok = outages[6.0] <= outages[10.0] <= outages[15.0]
    ok = near_ok and far_ok and mono_ok and elapsed < 300.0
    _report(6, "outage statistics", ok,
            f"outage 6 m: {outages[6.0]:.4f} (<0.05 -> {near_ok}); "
            f"15 m: {outages[15.0]:.4f} (band [0.40, 0.70] -> {far_ok}); "
            f"monotone over 6/10/15 m: {mono_ok}; {elapsed:.0f} s (<300 s)")
    assert near_ok
    assert mono_ok
    assert elapsed < 300.0
    # known structural miss at 15 m under the power-capped array; README,
    # "Known statistical behavior"
    assert far_ok, (
        f"outage at 15 m is {outages[15.0]:.4f}, outside [0.40, 0.70]")


def test_criterion_7_simulation_invariants():
    p0 = _params()
    for d in (6.0, 10.0, 15.0):
        for k in (1e2, 1e4):
            p = replace(p0, dist_ap_dev=d, ops_per_bit=k)
            seed = int(d * 1000 + k)
            # determinism
            t1 = run_trace(p, 30, seed)
            t2 = run_trace(p, 30, seed)
            assert t1.records == t2.records
            # storage non-negativity and exact replay of the update rule
            level = 0.0
            for rec in t1.records:
                assert rec.e_stored_begin >= 0.0
                assert rec.e_stored_begin == level
                assert (rec.i_s == 1) == (rec.strategy is Strategy.HARVEST_ONLY)
                level = level + rec.e_harvest if rec.i_s else level - rec.cost
            assert level >= 0.0
    _report(7, "simulation invariants", True,
            "non-negative storage, exact replay and seed determinism "
            "over 6 configurations")


def _local_fits(p: SystemParams, gd: float) -> bool:
    """Seconds per bit decoding, 1/(B_h log2(1+SNR)), plus seconds per bit
    computing, K/f_op, fit into 1/rate_min; log2 from the C library."""
    l2 = math.log2(1.0 + gd / p.noise_dev)
    return l2 > 0.0 and (1.0 / (p.bw_downlink * l2)
                         + p.ops_per_bit / p.dev_ops_per_sec <= 1.0 / p.rate_min)


def _offload_fits(p: SystemParams, gd: float) -> bool:
    """The rate floor lies strictly below the full-frame link capacity."""
    return p.rate_min < p.bw_downlink * math.log2(1.0 + gd / p.noise_dev)


def test_criterion_8_feasibility_fuzz():
    rng = np.random.default_rng(8008)
    n = 10_000
    rejected_local = rejected_offload = 0
    for _ in range(n):
        try:
            p = SystemParams(
                n_antennas=int(rng.integers(1, 9)),
                p_transmit=10.0 ** rng.uniform(-1, 1),
                bw_downlink=10.0 ** rng.uniform(5, 7),
                bw_offload=10.0 ** rng.uniform(5, 7),
                noise_dev=10.0 ** rng.uniform(-13, -9),
                noise_server=10.0 ** rng.uniform(-13, -9),
                eh_efficiency=rng.uniform(0.05, 1.0),
                decode_energy_per_bit=10.0 ** rng.uniform(-12, -9),
                rate_min=10.0 ** rng.uniform(3, 5),
                frame_duration=rng.uniform(0.2, 2.0),
                ops_per_bit=10.0 ** rng.uniform(1, 5),
                dev_ops_per_sec=10.0 ** rng.uniform(7, 10),
                immaturity_factor=10.0 ** rng.uniform(2, 5),
                activity_factor=rng.uniform(0.05, 0.95),
                fanout=rng.uniform(1.0, 6.0),
                thermal_noise_density=10.0 ** rng.uniform(-22, -20),
                carrier_freq_mhz=10.0 ** rng.uniform(2, 4),
                pathloss_coeff=rng.uniform(10.0, 40.0),
                rician_k_db=rng.uniform(-10.0, 20.0),
                dist_ap_dev=rng.uniform(1.0, 40.0),
                dist_dev_server=rng.uniform(1.0, 40.0),
            )
        except ValueError as exc:  # generator stays inside the legal ranges
            pytest.fail(f"generator produced invalid parameters: {exc}")
        gd = np.array([10.0 ** rng.uniform(-14.0, -2.0)])
        go = np.array([10.0 ** rng.uniform(-14.0, -2.0)])
        local, offload = solve_frames(p, gd, go)
        if not _local_fits(p, float(gd[0])):
            rejected_local += 1
            assert not local.feasible[0] and local.cost[0] == math.inf
        if not _offload_fits(p, float(gd[0])):
            rejected_offload += 1
            assert not offload.feasible[0] and offload.cost[0] == math.inf
        e_stored = 0.0 if rng.uniform() < 0.5 else 10.0 ** rng.uniform(-9, -3)
        offloads = choose_modes(p, local, offload)
        chosen = offload if offloads[0] else local
        if _affordable(local, offload, offloads, e_stored)[0]:
            assert chosen.feasible[0] and chosen.cost[0] <= e_stored
            slots = [float(getattr(chosen, name)[0])
                     for name in ("tau_e", "tau_d", "tau_c", "tau_o", "p_o")]
        else:
            a = harvest_only_result(p, float(gd[0])).allocation
            slots = [a.tau_e, a.tau_d, a.tau_c, a.tau_o, a.p_o]
        tau_e, tau_d, tau_c, tau_o, p_o = slots
        tee = p.frame_duration
        assert tau_e + tau_d + tau_c + tau_o == pytest.approx(tee, rel=1e-9)
        assert -1e-12 <= tau_e and tau_d <= tee and p_o >= 0.0
    _report(8, "feasibility fuzz", True,
            f"{n} random parameter draws without crash; "
            f"{rejected_local} local / {rejected_offload} offload "
            f"infeasible instances all rejected, never allocated")
