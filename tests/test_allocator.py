import hashlib
import logging
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from swiptfog import _ieee, allocator
from swiptfog.allocator import (
    Strategy,
    choose_modes,
    decide,
    decision_inequality,
    evaluate_strategies,
    harvest_only_result,
    lambert_w0,
    solve_frames,
    solve_local,
    solve_offload,
)
from swiptfog.bruteforce import bisect_lambert
from swiptfog.energy import (
    compute_energy,
    decode_energy,
    harvested_energy,
    throughput,
)
from swiptfog.params import load_params
from swiptfog.sim import monte_carlo

from conftest import random_gain_pairs


# --- feasibility -----------------------------------------------------------

def test_local_infeasible_when_compute_budget_saturates(params):
    # ops_per_bit/dev_ops_per_sec == 1/rate_min leaves no decode time
    p = replace(params, ops_per_bit=params.dev_ops_per_sec / params.rate_min)
    local, _ = solve_frames(p, [1.0], [0.0])
    assert local.feasible.tolist() == [False]


def test_local_feasible_at_defaults_above_snr_threshold(params):
    # seconds-per-bit budget: decode term must stay below 4e-5
    # threshold gain: log2(1+SNR) = 1/(B_h * 4e-5) = 0.0125
    g_thresh = (2.0 ** 0.0125 - 1.0) * params.noise_dev
    gd = [1e-6, 0.0, g_thresh * 1.0001, g_thresh * 0.9999]
    local, _ = solve_frames(params, gd, [0.0] * 4)
    assert local.feasible.tolist() == [True, False, True, False]


def test_offload_feasibility_is_strict(params):
    # unit-SNR capacity is exactly B_h; a rate floor equal to it must fail
    # (the decode slot would fill the frame), even over an offload link
    # strong enough to send the frame's bits in the few ms the decode slot
    # leaves just above unit SNR
    p = replace(params, rate_min=params.bw_downlink)
    _, offload = solve_frames(p, [p.noise_dev, p.noise_dev * 1.01], [1e90] * 2)
    assert offload.feasible.tolist() == [False, True]
    # at defaults the unit-SNR capacity 2e6 clears the 2e4 floor
    _, offload = solve_frames(params, [1.0, params.noise_dev], [1e-7, 1e-4])
    assert offload.feasible.tolist() == [True, True]


def test_rate_floor_at_capacity_never_reaches_the_root_solver(
        params, monkeypatch):
    # rate_min = B_h and G = noise_dev make log2(1 + SNR) exactly 1, so the
    # full-frame capacity equals the floor: both modes are infeasible, and
    # the strict comparison keeps the frame out of lambert_w0, which only
    # sees the second frame, above the floor
    p = replace(params, rate_min=params.bw_downlink)
    assert _ieee.log2(np.array([2.0])).tolist() == [1.0]
    solver, seen = allocator.lambert_w0, []

    def spy(x):
        seen.append(np.array(x, copy=True))
        return solver(x)

    monkeypatch.setattr(allocator, "lambert_w0", spy)
    gd = np.array([p.noise_dev, 1e5 * p.noise_dev])
    go = np.array([1e-7, 1e-7])
    local, offload = solve_frames(p, gd, go)
    assert not (local.feasible[0] or offload.feasible[0])
    x = p.eh_efficiency * go[1] * (gd[1] + p.noise_dev) / p.noise_server
    assert [a.tolist() for a in seen] == [[(x - 1.0) * allocator._INV_E]]


# --- local closed form -----------------------------------------------------

def test_local_compute_slot_value(params):
    res = solve_local(params, 1e-6)
    assert res.feasible
    assert res.allocation.tau_c == pytest.approx(0.2, rel=1e-12)


def test_local_decode_slot_value(params):
    # gain chosen so log2(1+SNR) = 10
    gd = (2.0 ** 10 - 1.0) * params.noise_dev
    res = solve_local(params, gd)
    assert res.allocation.tau_d == pytest.approx(1e-3, rel=1e-12)
    assert res.allocation.tau_e == pytest.approx(0.799, rel=1e-12)
    assert res.allocation.tau_e + res.allocation.tau_d + res.allocation.tau_c \
        == pytest.approx(params.frame_duration, rel=1e-12)


def test_local_constraints_bind_at_optimum(params):
    rng = np.random.default_rng(0)
    for gd, _ in random_gain_pairs(rng, 50, params):
        res = solve_local(params, gd)
        a = res.allocation
        rate = throughput(params, gd, a.tau_d)
        assert rate == pytest.approx(params.rate_min, rel=1e-9)
        ops = params.ops_per_bit * rate * params.frame_duration
        assert a.tau_c * params.dev_ops_per_sec == pytest.approx(ops, rel=1e-9)


def test_local_cost_assembly(params):
    gd = 1e-6
    res = solve_local(params, gd)
    a, b = res.allocation, res.breakdown
    expected = (decode_energy(params, gd, a.tau_d)
                + compute_energy(params, params.rate_min)
                - harvested_energy(params, gd, a.tau_e))
    assert b.cost == pytest.approx(expected, rel=1e-12)


def test_local_objective_increases_in_each_slot(params):
    # certificate for boundary optimality of the closed form
    rng = np.random.default_rng(1)
    hr = params.eh_efficiency

    def objective(gd, tau_d, tau_c):
        return (decode_energy(params, gd, tau_d)
                + compute_energy(params, throughput(params, gd, tau_d))
                - harvested_energy(params, gd,
                                   params.frame_duration - tau_d - tau_c))

    for gd, _ in random_gain_pairs(rng, 50, params):
        tau_d = rng.uniform(1e-4, 0.3)
        tau_c = rng.uniform(1e-4, 0.3)
        base = objective(gd, tau_d, tau_c)
        assert objective(gd, tau_d * 1.01, tau_c) > base
        assert objective(gd, tau_d, tau_c * 1.01) > base
    assert hr > 0  # harvest rate positive is what drives the monotonicity


# --- root solver -----------------------------------------------------------

# A log grid up to (float max - 1) / e, the largest root argument solve_frames
# can form.  From about 4e302 on, (w + 2) f in a Halley pass overflows, and
# the bisection oracle's w e^w overflows at its upper points: every root must
# still be certified, with no warning.
_TOP_OF_THE_ROOT_ARGUMENTS = np.append(
    10.0 ** np.linspace(290.0, 307.0, 40), np.finfo(float).max / math.e)


def test_root_solver_defining_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-13)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    # frozen reference from the bisection oracle run at 1e-14 width
    assert lambert_w0(1.0) == pytest.approx(0.567143290409784, abs=1e-13)


def test_root_solver_rejects_left_of_branch_point():
    with pytest.raises(ValueError):
        lambert_w0(-1.0 / math.e - 1e-6)
    with pytest.raises(ValueError):
        lambert_w0(math.nan)


def test_root_solver_special_points_and_domain_elementwise():
    branch = -1.0 / math.e
    w = lambert_w0([0.0, branch - 5e-16, branch, math.e])
    assert isinstance(w, np.ndarray) and w.shape == (4,)
    assert w[0] == 0.0 and w[1] == -1.0
    assert w[2] == pytest.approx(-1.0, abs=1e-7)
    assert w[3] == pytest.approx(1.0, rel=1e-15)
    assert lambert_w0(np.full((2, 3), math.e)).shape == (2, 3)
    assert type(lambert_w0(math.e)) is float
    # one bad element fails the whole call
    with pytest.raises(ValueError):
        lambert_w0([1.0, math.nan])
    with pytest.raises(ValueError):
        lambert_w0([1.0, -0.5])
    with pytest.raises(ArithmeticError):
        lambert_w0([1.0, math.inf])


def test_root_solver_round_trip_along_domain():
    xs = np.concatenate([
        -1.0 / math.e + 10.0 ** np.linspace(-9.0, math.log10(1 / math.e), 400),
        10.0 ** np.linspace(-12.0, 6.0, 400),
        [0.0, 1.0, math.e, 10.0, 1e6],
        _TOP_OF_THE_ROOT_ARGUMENTS,
    ])
    for x in xs:
        w = lambert_w0(float(x))
        assert w >= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_root_solver_agrees_with_bisection():
    xs = np.concatenate([
        -1.0 / math.e + 10.0 ** np.linspace(-9.0, math.log10(1 / math.e), 200),
        10.0 ** np.linspace(-10.0, 6.0, 200),
        _TOP_OF_THE_ROOT_ARGUMENTS,
    ])
    for x in xs:
        assert abs(lambert_w0(float(x)) - bisect_lambert(float(x))) <= 1e-11


def _halley_all_passes(x):
    """lambert_w0 without cycle retirement: every element runs until its
    step is at rounding level or 50 passes are spent, from the same start
    values and with the same pass.  Returns w, the passes each element ran,
    the first pass k whose w equals the element's w of pass k - 2 or k - 3
    while the element iterates on (0 where none does), and that cycle's
    length, 2 or 3 (the shorter where both match)."""
    x = np.asarray(x, dtype=float)
    w = np.zeros(x.shape)
    pos, neg = x > 0.0, x < 0.0
    w[pos] = _ieee.log2(1.0 + x[pos]) * _ieee.LN2
    p = np.sqrt(2.0 * (math.e * x[neg] + 1.0))
    w_neg = -1.0 + p - p * p / 3.0 + 11.0 * (p * p * p) / 72.0
    w[neg] = np.where(w_neg >= 0.0, -1e-300, w_neg)
    passes = np.zeros(x.shape, dtype=int)
    cycle_pass = np.zeros(x.shape, dtype=int)
    cycle_len = np.zeros(x.shape, dtype=int)
    back2 = np.full(x.shape, math.nan)
    back3 = np.full(x.shape, math.nan)
    active = np.flatnonzero(pos | neg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, 51):
            if active.size == 0:
                break
            wa, xa = w[active], x[active]
            ew = _ieee.exp(wa)
            f = wa * ew - xa
            wp1 = wa + 1.0
            halt = (f == 0.0) | (wp1 == 0.0)
            denom = ew * wp1 - (wa + 2.0) * f / (2.0 * wp1)
            step = f / denom
            w_next = wa - step
            w_next[w_next < -1.0] = -1.0 + 1e-16
            w[active] = np.where(halt, wa, w_next)
            done = halt | (np.abs(step) <= 2e-16 * (1.0 + np.abs(w_next)))
            passes[active] = k
            for n, back in ((2, back2), (3, back3)):
                first = active[~done & (w_next == back[active])
                               & (cycle_pass[active] == 0)]
                cycle_pass[first] = k
                cycle_len[first] = n
            back3[active] = back2[active]
            back2[active] = wa
            active = active[~done]
    return w, passes, cycle_pass, cycle_len


def _near_branch(n, seed):
    """n inputs in (-1/e, -1/e + 0.05), uniform, and n more log-spaced from
    the branch point."""
    rng = np.random.default_rng(seed)
    return -1.0 / math.e + np.concatenate([
        rng.uniform(0.0, 0.05, n), 10.0 ** rng.uniform(-17.0, -1.3, n)])


def _mc_outage_roots(monkeypatch):
    """Every lambert_w0 argument of monte_carlo on the benchmark's outage
    problem (ops_per_bit 1e4) at 6, 10 and 15 m, 100 frames x 60 trials."""
    seen = []
    solver = allocator.lambert_w0
    base = replace(load_params(""), ops_per_bit=1e4)
    with monkeypatch.context() as m:
        m.setattr(allocator, "lambert_w0",
                  lambda x: seen.append(np.array(x)) or solver(x))
        for dist in (6.0, 10.0, 15.0):
            monte_carlo(replace(base, dist_ap_dev=dist), 100, 60, 256)
    return np.concatenate(seen)


def test_root_solver_bits_equal_the_all_passes_loop(monkeypatch):
    rng = np.random.default_rng(17)
    near = _near_branch(50_000, 3)
    xs = np.concatenate([
        near, 10.0 ** rng.uniform(-300.0, 300.0, 20_000),
        -10.0 ** rng.uniform(-300.0, math.log10(1.0 / math.e), 20_000),
        _mc_outage_roots(monkeypatch)])
    want, passes, cycle_pass, cycle_len = _halley_all_passes(xs)
    # the inputs hold elements retired from cycles of both lengths, at every
    # residue of the pass count modulo the length, and every element that
    # runs out of passes is caught in a cycle
    for n in (2, 3):
        residues = cycle_pass[cycle_len == n] % n
        assert set(residues.tolist()) == set(range(n)), n
    assert (cycle_pass[passes == 50] > 0).all()
    for order in (np.arange(xs.size), rng.permutation(xs.size)):
        got = lambert_w0(xs[order])
        assert np.array_equal(got.view(np.int64), want[order].view(np.int64))


def test_root_solver_bits_are_pinned(monkeypatch):
    """sha256 of lambert_w0 over near-branch inputs (both cycle lengths are
    retired among them), x across (-1/e, 1e300] and every root of one
    mc_outage distance (15 m, 100 frames x 250 trials, seed 256, output
    version 4)."""
    rng = np.random.default_rng(23)
    seen = []
    solver = allocator.lambert_w0
    monkeypatch.setattr(allocator, "lambert_w0",
                        lambda x: seen.append(np.array(x)) or solver(x))
    monte_carlo(replace(load_params(""), ops_per_bit=1e4,
                        dist_ap_dev=15.0), 100, 250, 256)
    xs = np.concatenate([
        _near_branch(20_000, 5), 10.0 ** rng.uniform(-300.0, 300.0, 5_000),
        -10.0 ** rng.uniform(-300.0, math.log10(1.0 / math.e), 5_000),
        [1e300, 0.0, -1.0 / math.e], *seen])
    got = solver(xs)
    assert hashlib.sha256(got.astype("<f8").tobytes()).hexdigest() == (
        "0ef57bbeaeb1f28c42a4001645023287c0bba0f88a6e45006d5838734d7a1610")


def test_root_solver_retires_cycling_elements_within_a_few_passes(monkeypatch):
    xs = _near_branch(20_000, 5)
    _, passes, _, cycle_len = _halley_all_passes(xs)
    exp = _ieee.exp
    for n, least in ((2, 1_000), (3, 20)):
        # each costs 51 exp evaluations without retirement
        stuck = xs[(passes == 50) & (cycle_len == n)]
        assert stuck.size >= least
        counted = []

        def counting_exp(x):
            counted.append(np.size(x))
            return exp(x)

        monkeypatch.setattr(_ieee, "exp", counting_exp)
        lambert_w0(stuck)
        # passes to the cycle, plus the residual check
        assert 2 * stuck.size <= sum(counted) <= 8 * stuck.size, n


# --- offload closed form ---------------------------------------------------

def test_offload_root_argument_identity(params):
    # eta*|g|^2*(G+noise)/noise_server equals the textbook form built from
    # the decode-slot power-of-two
    rng = np.random.default_rng(2)
    for gd, go in random_gain_pairs(rng, 50, params):
        res = solve_offload(params, gd, go)
        tau_d = res.allocation.tau_d
        bits = params.bits_per_frame
        via_pow2 = ((params.noise_dev / params.noise_server)
                    * params.eh_efficiency * go
                    * 2.0 ** (bits / (params.bw_downlink * tau_d)))
        direct = (params.eh_efficiency * go
                  * (gd + params.noise_dev) / params.noise_server)
        assert via_pow2 == pytest.approx(direct, rel=1e-9)


def test_offload_slot_at_root_zero(params):
    # construct eta*|g|^2*(G+noise) == noise_server so the root argument is
    # -1/e shifted to zero: slot reduces to bits*ln2/bandwidth
    go = 1e-6
    gd = params.noise_server / (params.eh_efficiency * go) - params.noise_dev
    res = solve_offload(params, gd, go)
    assert res.feasible
    expected = params.bits_per_frame * math.log(2.0) / params.bw_offload
    assert res.allocation.tau_o == pytest.approx(expected, rel=1e-9)


def test_offload_bit_constraint_tight(params):
    from swiptfog.energy import offload_bits
    rng = np.random.default_rng(3)
    for gd, go in random_gain_pairs(rng, 100, params):
        res = solve_offload(params, gd, go)
        a = res.allocation
        delivered = offload_bits(params, go, a.p_o, a.tau_o)
        assert delivered == pytest.approx(params.bits_per_frame, rel=1e-9)


def test_offload_time_partition(params):
    rng = np.random.default_rng(4)
    for gd, go in random_gain_pairs(rng, 50, params):
        a = solve_offload(params, gd, go).allocation
        assert a.tau_e >= 0.0
        assert a.tau_e + a.tau_d + a.tau_o == pytest.approx(
            params.frame_duration, rel=1e-12)
        assert a.tau_c == 0.0 and a.i_o == 1 and a.p_o > 0.0


def test_offload_infeasible_when_slot_exceeds_frame(params):
    # vanishing offload gain drives the required slot past the frame end
    res = solve_offload(params, 1e-6, 1e-13)
    assert not res.feasible
    assert res.allocation is None


def test_offload_degenerate_zero_gain(params):
    assert not solve_offload(params, 1e-6, 0.0).feasible


# --- decision --------------------------------------------------------------

def test_decide_prefers_cheaper_and_sets_indicator(params):
    rng = np.random.default_rng(5)
    for gd, go in random_gain_pairs(rng, 100, params):
        local, offload = evaluate_strategies(params, gd, go)
        alloc, brk = decide(params, gd, go, math.inf)
        if local.cost <= offload.cost:
            assert alloc.strategy is Strategy.LOCAL_COMPUTE and alloc.i_o == 0
            assert brk.cost == local.cost
        else:
            assert alloc.strategy is Strategy.OFFLOAD and alloc.i_o == 1
            assert brk.cost == offload.cost


def test_decide_falls_back_to_harvesting_when_unaffordable(params):
    # near-zero harvest efficiency keeps both optimal costs positive
    p = replace(params, eh_efficiency=1e-6)
    gd, go = 1e-6, 1e-7
    local, offload = evaluate_strategies(p, gd, go)
    cheapest = min(local.cost, offload.cost)
    assert cheapest > 0
    alloc, brk = decide(p, gd, go, cheapest * 0.5)
    assert alloc.strategy is Strategy.HARVEST_ONLY
    assert alloc.tau_e == p.frame_duration
    assert brk.cost == -brk.e_harvest


def test_decide_exact_budget_boundary(params):
    p = replace(params, eh_efficiency=1e-6)
    gd, go = 1e-6, 1e-7
    local, offload = evaluate_strategies(p, gd, go)
    cost = min(local.cost, offload.cost)
    assert cost > 0
    alloc, _ = decide(p, gd, go, cost)  # budget exactly equal: affordable
    assert alloc.strategy is not Strategy.HARVEST_ONLY
    alloc, _ = decide(p, gd, go, cost * (1 - 1e-9))
    assert alloc.strategy is Strategy.HARVEST_ONLY


def test_decide_harvest_only_when_nothing_feasible(params):
    # zero offload path and compute budget too small for the rate floor
    p = replace(params, ops_per_bit=params.dev_ops_per_sec / params.rate_min)
    alloc, brk = decide(p, 1e-6, 0.0, math.inf)
    assert alloc.strategy is Strategy.HARVEST_ONLY
    assert alloc.tau_e == p.frame_duration
    assert brk.e_harvest == pytest.approx(
        harvested_energy(p, 1e-6, p.frame_duration), rel=1e-12)


def test_decide_single_feasible_strategy_is_used(params):
    # offload gain of zero leaves only local computation
    alloc, _ = decide(params, 1e-6, 0.0, math.inf)
    assert alloc.strategy is Strategy.LOCAL_COMPUTE


def test_decision_rule_matches_cost_comparison(params):
    rng = np.random.default_rng(6)
    for gd, go in random_gain_pairs(rng, 200, params):
        local, offload = evaluate_strategies(params, gd, go)
        lhs, rhs = decision_inequality(params, gd, go)
        assert (lhs > rhs) == (offload.cost < local.cost)


def _contradicting_claims(params, n):
    """solve_frames' optima on n pairs where local is cheaper, with each
    offload cost lowered below the local one: the closed-form rule, which
    reads the offload slot and power, still says local; the costs say
    offload."""
    gd, go = np.array(random_gain_pairs(np.random.default_rng(8), 4 * n, params)).T
    local, offload = solve_frames(params, gd, go)
    keep = np.flatnonzero(local.cost < offload.cost)[:n]
    assert keep.size == n
    local, offload = local.take(keep), offload.take(keep)
    cheaper = local.cost - np.abs(local.cost) - 1e-6
    return local, replace(offload, cost=cheaper)


def test_choose_modes_warns_once_with_the_count(params, caplog):
    local, offload = _contradicting_claims(params, 7)
    # the last two offload claims cost more than local, as the rule says
    offload = replace(offload, cost=np.concatenate(
        [offload.cost[:5], local.cost[5:] + 1.0]))
    with caplog.at_level(logging.WARNING, logger="swiptfog.allocator"):
        offloads = choose_modes(params, local, offload)
    assert offloads.tolist() == [True] * 5 + [False] * 2
    assert [r.getMessage() for r in caplog.records] == [
        "mode rule disagrees with cost comparison on 5 of 7 frames where "
        "both modes are feasible"]


def test_decide_rejects_nan_or_negative_storage(params):
    for e_stored in (math.nan, -1e-12):
        with pytest.raises(ValueError, match="e_stored"):
            decide(params, 1e-6, 1e-7, e_stored)


def test_decision_rule_requires_both_feasible(params):
    with pytest.raises(ValueError):
        decision_inequality(params, 1e-6, 0.0)


def test_decision_rule_on_one_frame_is_pinned(params):
    # mode_rule_sides on the 0-d arrays solve_frames returns for two numbers,
    # as two floats whatever the numbers' type
    for gains in ((1e-6, 1e-7), np.array([1e-6, 1e-7])):
        sides = decision_inequality(params, *gains)
        assert sides == (1.2166475323334387e-07, 7.704520382291433e-07)
        assert [type(side) for side in sides] == [float, float]


def test_mode_choice_on_zero_d_arrays(params):
    # two numbers give 0-d arrays, which the rule's mask indexes like any other
    local, offload = solve_frames(params, 1e-6, 1e-7)
    both = local.feasible & offload.feasible
    offloads = choose_modes(params, local, offload)
    assert (offloads.shape, offloads.dtype, bool(offloads)) == ((), bool, False)
    assert allocator._rule_disagreements(params, local, offload, both) == (0, 0)
    cheaper = replace(offload, cost=local.cost - 1.0)  # the rule still says local
    assert allocator._rule_disagreements(params, local, cheaper, both) == (1, 0)


@pytest.mark.parametrize("name,bad", [
    ("tau_e", -1e-9), ("tau_d", 1.5), ("tau_c", -1.0), ("tau_o", 2.0),
    ("p_o", math.inf), ("p_o", math.nan),
    ("e_decode", -1e-12), ("e_compute", -1.0), ("e_harvest", -1e-12),
    ("e_decode", math.inf), ("e_harvest", math.nan), ("e_harvest", math.inf)])
def test_strategy_arrays_guards_only_feasible_elements(params, name, bad):
    # slots in [0, T] (T = 1 s here), p_o and energies finite and >= 0: a
    # bad value, NaN included, on a feasible element raises; on an
    # infeasible one it does not, and only the cost is masked.  A formed
    # field takes its bad value through a stored one: tau_e, the rest of the
    # frame, through tau_o, and e_harvest through harvest_rate.  The stored
    # fields are guarded first, so a NaN tau_e or a negative e_offload = tau_o
    # * p_o never reaches its own guard: a factor's guard rejects it first.
    # Both modes (i_o 0 and 1) take the same fields, and return the stored
    # ones read-only.
    slots = ("tau_e", "tau_d", "tau_c", "tau_o")
    good = dict.fromkeys(slots[1:], 0.25) | dict.fromkeys(
        ("p_o", "e_decode", "e_compute"), 1e-6) | {"harvest_rate": 4e-6}
    fed, value = {"tau_e": ("tau_o", 0.5 - bad),
                  "e_harvest": ("harvest_rate", bad / 0.25)}.get(name, (name, bad))
    formed = 0.5 - value if name == "tau_e" else bad
    p = replace(params, frame_duration=1.0)
    feasible = np.array([True, False, True])
    high = re.escape(str(1.0 if name in slots else np.finfo(float).max))

    def arrays(i_o, values):
        return allocator._strategy_arrays(
            p, feasible, i_o, **(good | {fed: np.array(values)}))

    for i_o, mode in enumerate(("local", "offload")):
        message = (rf"a feasible frame's {name} must lie in \[0, {high}\]"
                   if name in slots or name == "p_o" or bad < 0.0
                   else f"a feasible frame's {mode} cost overflows")
        for values in ([good[fed], good[fed], value], [value, good[fed], good[fed]]):
            with pytest.raises(ValueError, match=message):
                arrays(i_o, values)
        out = arrays(i_o, [good[fed], value, good[fed]])
        assert out.feasible.tolist() == [True, False, True]
        assert getattr(out, name)[1] == formed or math.isnan(bad)
        assert np.isfinite(out.cost[::2]).all() and out.cost[1] == math.inf
        assert not any(getattr(out, f).flags.writeable for f in good)


def test_modes_share_read_only_stored_fields(params):
    # one tau_d, e_decode and harvest_rate for both modes; a constant is a
    # zero-stride view of the frames' shape
    local, offload = solve_frames(params, np.full((3, 2), 1e-6), np.full((3, 2), 1e-7))
    for name in ("tau_d", "e_decode", "harvest_rate"):
        assert np.shares_memory(getattr(local, name), getattr(offload, name))
    for arrays in (local, offload):
        for f in fields(arrays)[2:-1]:
            value = getattr(arrays, f.name)
            assert value.shape == (3, 2) and not value.flags.writeable, f.name
    assert local.tau_o.strides == offload.tau_c.strides == (0, 0)


def test_tie_and_scale_invariance(params):
    rng = np.random.default_rng(7)
    draws = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
              10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(200)]
    c1, c2, k = np.array(draws + [(1.0, 1.0, 1.0)]).T  # the last is a tie
    gd = np.full(c1.size, 1e-6)
    local, offload = solve_frames(params, gd, np.full(c1.size, 1e-7))

    def offloads(cost_local, cost_offload):
        # costs replaced: the mode rule's cross-check may log, the costs decide
        return choose_modes(params, replace(local, cost=cost_local),
                            replace(offload, cost=cost_offload))

    chosen = offloads(c1, c2)
    assert not chosen[-1]  # tie -> local
    assert chosen.tolist() == offloads(k * c1, k * c2).tolist()


def test_harvest_only_allocation_shape(params):
    res = harvest_only_result(params, 1e-6)
    a = res.allocation
    assert a.strategy is Strategy.HARVEST_ONLY
    assert (a.tau_e, a.tau_d, a.tau_c, a.tau_o, a.p_o) == (
        params.frame_duration, 0.0, 0.0, 0.0, 0.0)
    assert res.breakdown.cost == -res.breakdown.e_harvest
