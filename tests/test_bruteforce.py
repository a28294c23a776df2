import itertools
import logging
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from swiptfog import bruteforce
from swiptfog.allocator import solve_frames, solve_local, solve_offload
from swiptfog.bruteforce import (
    GridSpec,
    _local_cost,
    bisect_lambert,
    brute_local,
    brute_offload,
    local_grid_tolerance,
    offload_grid_tolerance,
)
from swiptfog.params import load_params

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
    cost = _local_cost(params, l2, hr, tau_d, tau_c, rate)
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
    # rate floor impossible at any decode slot of this gain
    p = replace(params, rate_min=1e12)
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
        spec = replace(GridSpec.for_frame(params.frame_duration),
                       refine_iters=refine_iters)
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
    no_refine = replace(GridSpec.for_frame(few.frame_duration), refine_iters=0)
    for block in (g, np.array([g, 2 * g])):
        with pytest.raises(ValueError,
                           match="empty feasible grid for the local program"):
            brute_local(few, block, no_refine)
    with pytest.raises(ValueError, match="rate floor exceeds capacity"):
        brute_offload(params, gd[:2], go[:2], spec)


def test_offload_empty_grid_raises(params):
    p = replace(params, rate_min=1e12)
    with pytest.raises(ValueError, match="feasible"):
        brute_offload(p, 1e-6, 1e-7, GridSpec(resolution=1e-2, refine_iters=0))


def test_oracle_objective_matches_energy_composition(params):
    # the vectorized grid objective must agree with the energy primitives
    from swiptfog.energy import compute_energy, decode_energy, harvested_energy, throughput
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


# ---------------------------------------------------------------------------
# the lockstep run search against full-row sweeps
# ---------------------------------------------------------------------------

def _local_rows(params, l2k, step):
    """Full decode-axis rows for one gain, each operation in the oracle's
    order: (tau_d, rate, tau_c)."""
    tee = params.frame_duration
    tau_d = step * np.arange(1, int(math.floor(tee / step)) + 1)
    rate = params.bw_downlink * (tau_d / tee) * l2k
    tau_c = params.ops_per_bit * rate
    tau_c *= tee
    tau_c /= params.dev_ops_per_sec
    tau_c /= step
    tau_c -= 1e-12
    tau_c = np.ceil(tau_c) * step
    return tau_d, rate, tau_c


def _full_row_local_grid(params, l2, hr, step):
    """The full-row grid pass: every decode cell of every gain, then the
    first minimum of the run that searchsorted finds."""
    tee = params.frame_duration
    best_d, best_c = np.full(l2.size, math.nan), np.full(l2.size, math.nan)
    best = np.full(l2.size, math.inf)
    for k, (l2k, hrk) in enumerate(zip(l2.tolist(), hr.tolist())):
        tau_d, rate, tau_c = _local_rows(params, l2k, step)
        lo = int(rate.searchsorted(params.rate_min))
        hi = int((tau_d + tau_c).searchsorted(tee, side="right"))
        if lo >= hi:
            continue
        c = _local_cost(params, l2k, hrk, tau_d[lo:hi], tau_c[lo:hi], rate[lo:hi])
        i = int(c.argmin())
        best_d[k], best_c[k], best[k] = tau_d[lo + i], tau_c[lo + i], c[i]
    return best_d, best_c, best


def _local_bit_cases():
    """(params, gains): the defaults, ops_per_bit 10 and 100 (runs of
    thousands of cells), and both few-cell configurations."""
    rng = np.random.default_rng(21)
    base = load_params("")
    for k in (None, 10.0, 100.0):
        p = base if k is None else replace(base, ops_per_bit=k)
        yield p, _feasible_pairs(p, rng, 150)[0]
    for p, pair in FEW_CELL_DECODE:
        yield p, _feasible_pairs(p, rng, 40, extra=[pair])[0]


@pytest.mark.parametrize("case", range(5))
def test_local_grid_bits_equal_full_row_sweep(case, monkeypatch):
    # the grid pass visits only each gain's feasible run; its best cells and
    # the refined minima are the bits of sweeping every cell of every row
    p, gd = list(_local_bit_cases())[case]
    step = GridSpec.for_frame(p.frame_duration).resolution
    l2, hr = bruteforce._log2_snr(p, gd), bruteforce._harvest_rate(p, gd)
    cells = bruteforce._local_grid(p, l2, hr, step)
    for got, want in zip(cells, _full_row_local_grid(p, l2, hr, step)):
        assert got.tobytes() == want.tobytes()
    assert np.isinf(cells[2]).any() == (case >= 3)  # gains without a cell
    for refine_iters in (0, 60):
        spec = replace(GridSpec.for_frame(p.frame_duration),
                       refine_iters=refine_iters)
        results = []
        for grid in (bruteforce._local_grid, _full_row_local_grid):
            monkeypatch.setattr(bruteforce, "_local_grid", grid)
            try:
                results.append(brute_local(p, gd, spec))
            except ValueError as err:
                results.append(str(err))
        got, want = results
        if refine_iters == 0 and case >= 3:
            assert got == want == "empty feasible grid for the local program"
            continue
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_local_runs_equal_searchsorted_over_full_rows(params):
    # l2 from far below the rate floor's reach (lo = n, an empty run) through
    # runs that start at the first cell (lo = 0) to compute slots too long
    # for any cell (hi = 0, empty); with a light compute load and a low rate
    # floor, runs also reach the last cell (hi = n)
    light = replace(params, rate_min=1.0, ops_per_bit=1e-9)
    step = GridSpec.for_frame(params.frame_duration).resolution
    l2 = np.geomspace(1e-20, 1e4, 600)
    seen = set()
    for p in (params, light):
        tau_d, _, _ = _local_rows(p, 1.0, step)
        n, rate_per_l2 = tau_d.size, p.bw_downlink * (tau_d / p.frame_duration)
        lo, hi = bruteforce._local_runs(p, l2, rate_per_l2, tau_d, step)
        for l2k, a, b in zip(l2.tolist(), lo.tolist(), hi.tolist()):
            tau_d, rate, tau_c = _local_rows(p, l2k, step)
            assert a == rate.searchsorted(p.rate_min)
            assert b == (tau_d + tau_c).searchsorted(p.frame_duration,
                                                     side="right")
            seen |= {("lo=0", a == 0), ("lo=n", a == n), ("hi=0", b == 0),
                     ("run to hi=n", a < b == n), ("inner run", 0 < a < b < n)}
    assert {(name, True) for name, _ in seen} <= seen


def _falling_cost(*args, **kwargs):
    """-_local_cost: its minimum lies at the last cell of every run, so a
    block that let a run's minimum stray past the run would show."""
    out = _local_cost(*args, **kwargs)
    return np.negative(out, out=out)


@pytest.mark.parametrize("ops_per_bit", [300.0, 1000.0])
def test_local_grid_blocks_equal_one_run_sweeps(ops_per_bit, monkeypatch):
    # runs of hundreds of cells, and both few-cell configurations, whose
    # empty runs no block holds: blocks of every size give the bits of
    # sweeping each run on its own, for the cost and for a cost that falls
    # along each run
    rng = np.random.default_rng(22)
    p = replace(load_params(""), ops_per_bit=ops_per_bit)
    cases = [(p, _feasible_pairs(p, rng, 300)[0])]
    for few, pair in FEW_CELL_DECODE:
        cases.append((few, _feasible_pairs(few, rng, 40, extra=[pair])[0]))
    for (p, gd), cost in itertools.product(cases, (_local_cost, _falling_cost)):
        monkeypatch.setattr(bruteforce, "_local_cost", cost)
        step = GridSpec.for_frame(p.frame_duration).resolution
        l2, hr = bruteforce._log2_snr(p, gd), bruteforce._harvest_rate(p, gd)
        monkeypatch.setattr(bruteforce, "_BLOCK_WIDTH", 1)
        want = bruteforce._local_grid(p, l2, hr, step)
        monkeypatch.setattr(bruteforce, "_BLOCK_WIDTH", 2048)
        for cells in (2048, 1 << 14, 1 << 20):
            monkeypatch.setattr(bruteforce, "_BLOCK_CELLS", cells)
            got = bruteforce._local_grid(p, l2, hr, step)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def test_local_grid_memory_stays_bounded(params):
    # the grid pass holds buffers of one block or one run, not rows of every
    # cell: under 2 MiB over 2000 gains, with runs of tens of cells (the
    # defaults), hundreds (ops_per_bit 1000) and thousands (100 and 10)
    rng = np.random.default_rng(23)
    for p in (params, *(replace(params, ops_per_bit=k)
                        for k in (1000.0, 100.0, 10.0))):
        gd = _feasible_pairs(p, rng, 2000)[0]
        assert gd.size == 2000
        spec = GridSpec.for_frame(p.frame_duration)
        tracemalloc.start()
        try:
            brute_local(p, gd, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"ops_per_bit {p.ops_per_bit}: {peak} B"


def test_offload_grid_memory_stays_bounded(params, caplog):
    # the offload pass holds its window of 9 cells per pair and one row of
    # the axis, and a pair that falls back is swept on its own: under 2 MiB
    # over 2000 pairs, and over 2000 flat rows (see
    # test_offload_grid_reports_its_fallbacks) of 50 cells or more, which all
    # fall back
    caplog.set_level(logging.DEBUG, logger="swiptfog.bruteforce")
    rng = np.random.default_rng(29)
    gd, go = _feasible_pairs(params, rng, 2000)
    assert gd.size == 2000
    spec = GridSpec.for_frame(params.frame_duration)
    n = rng.integers(50, int(params.frame_duration / spec.resolution), 2000)
    flat = (n, np.ones(n.size), np.full(n.size, 1e-20), np.zeros(n.size),
            n * spec.resolution)
    for call in (lambda: brute_offload(params, gd, go, spec),
                 lambda: bruteforce._offload_grid(params, *flat,
                                                  spec.resolution)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"{peak} B"
    assert _fallbacks(caplog)[:2] == (2000, 2000)


# ---------------------------------------------------------------------------
# the offload window against full-row sweeps
# ---------------------------------------------------------------------------

_FELL_BACK = re.compile(
    r"offload grid: (\d+) of (\d+) pairs fell back to the full sweep \((\d+) "
    r"with no finite minimum or bound, (\d+) with the minimum on the left "
    r"edge, (\d+) on the right edge, (\d+) within the rounding bound\)")


def _fallbacks(caplog):
    """The counts of the last offload grid record: (fell back, pairs, no
    finite minimum or bound, left edge, right edge, rounding bound)."""
    found = [_FELL_BACK.fullmatch(r.getMessage()) for r in caplog.records]
    return tuple(map(int, [m for m in found if m][-1].groups()))


def _offload_rows(rng, size, n_max, a_exp, hr_max, step):
    """size random offload rows (n, e_dec, a, hr, room) of up to n_max
    cells of the grid step, with a log-uniform over 10**a_exp and hr up to
    hr_max."""
    n = rng.integers(1, n_max + 1, size)
    room = (n + rng.random(size)) * step
    e_dec = 10.0 ** rng.uniform(-12.0, 0.0, size)
    a = 10.0 ** rng.uniform(*a_exp, size)
    hr = rng.random(size) * hr_max
    return n, e_dec, a, hr, room


def _offload_bit_cases():
    """(name, params, rows): random rows; near-flat curves (hr = 0, tiny hr,
    tiny and huge a), whose minima sit at either end of the axis or are
    lost in rounding; rows shorter than the window, down to one cell; and,
    with a narrow offload band, rows whose window reaches the head, where
    2**u overflows, or that lie inside it, some with a so small that tau a
    underflows."""
    rng = np.random.default_rng(41)
    p = load_params("")
    step = GridSpec.for_frame(p.frame_duration).resolution
    yield "random", p, _offload_rows(rng, 400, 10_000, (-20.0, 10.0), 1.0,
                                     step)
    for a_exp, hr_max in (((-20.0, -14.0), 0.0), ((-20.0, -14.0), 1e-12),
                          ((4.0, 10.0), 0.0), ((4.0, 10.0), 1e-12),
                          ((-14.0, -8.0), 1e-6)):
        yield "near flat", p, _offload_rows(rng, 100, 10_000, a_exp, hr_max,
                                            step)
    yield "short", p, _offload_rows(rng, 200, 2 * bruteforce._WINDOW,
                                    (-20.0, 10.0), 1.0, step)
    # 2**u overflows on the first 40 or so cells
    head = replace(p, bw_offload=p.bits_per_frame / (900.0 * 40 * step))
    rows = _offload_rows(rng, 300, 200, (-20.0, 0.0), 1.0, step)
    rows[2][:10] = 1e-321  # tau a underflows to 0: 0 x inf is NaN in the head
    yield "head", head, rows


def _negated(cost):
    """-cost, written into cost's output."""
    def negated(*args, **kwargs):
        out = cost(*args, **kwargs)
        return np.negative(out, out=out)
    return negated


@pytest.mark.parametrize("negate", [False, True])
def test_offload_grid_bits_equal_full_row_sweep(negate, monkeypatch, caplog):
    # the window's certified minimum, or the fallback's, is the full-row
    # sweep's first minimum bit for bit.  With the cost negated the curve is
    # concave, not convex, so the slope search puts the window on its top
    # and every window whose row goes on past it must fall back at an edge.
    caplog.set_level(logging.DEBUG, logger="swiptfog.bruteforce")
    if negate:
        monkeypatch.setattr(bruteforce, "_offload_cost", _negated(
            bruteforce._offload_cost))
    step = GridSpec.for_frame(load_params("").frame_duration).resolution
    reasons, seen = np.zeros(4, dtype=int), set()
    for name, p, rows in _offload_bit_cases():
        if negate and name == "head":
            continue  # the head's cells must cost +inf, not -inf
        n = rows[0]
        with np.errstate(invalid="ignore"):
            got = bruteforce._offload_grid(p, *rows, step)
            want = bruteforce._offload_sweep(p, *rows, step)
        for g, w in zip(got, want):
            assert (g.view(np.int64) == w.view(np.int64)).all(), name
        fell, pairs, *why = _fallbacks(caplog)
        assert pairs == n.size and fell == sum(why)
        reasons += why
        cell = np.rint(got[0] / step).astype(int) - 1
        seen |= {("first cell", (cell == 0).any()),
                 ("last cell", (cell[n > 1] == n[n > 1] - 1).any()),
                 ("one cell", (n == 1).any()),
                 ("inside the head", np.isinf(got[1]).any())}
    if negate:  # each edge holds the concave curve's minimum somewhere
        assert (reasons[1:3] > 0).all(), reasons
    else:
        assert {(k, True) for k, _ in seen} <= seen
        # rows inside the head have no finite minimum; on flat curves the
        # first cell holds the minimum, or an edge is within the bound
        assert (reasons[[0, 1, 3]] > 0).all(), reasons


def test_offload_grid_reports_its_fallbacks(params, caplog):
    # no pair of wide feasible gains falls back at the defaults; on a flat
    # curve, whose last cells all round to e_dec, the window's first cell
    # holds the minimum, and every row longer than one cell falls back
    caplog.set_level(logging.DEBUG, logger="swiptfog.bruteforce")
    spec = GridSpec.for_frame(params.frame_duration)
    gd, go = _feasible_pairs(params, np.random.default_rng(43), 300)
    brute_offload(params, gd, go, spec)
    assert _fallbacks(caplog) == (0, gd.size, 0, 0, 0, 0)
    n = np.array([1, 50, 5000])
    flat = (n, np.ones(3), np.full(3, 1e-20), np.zeros(3), n * spec.resolution)
    got = bruteforce._offload_grid(params, *flat, spec.resolution)
    assert _fallbacks(caplog) == (2, 3, 0, 2, 0, 0)
    want = bruteforce._offload_sweep(params, *flat, spec.resolution)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert got[1].tolist()[1:] == [1.0, 1.0]


# ---------------------------------------------------------------------------
# root oracle and offload tolerance on arrays
# ---------------------------------------------------------------------------

def _scalar_bisect_lambert(x):
    """One element of bisect_lambert, written as a scalar loop."""
    if x <= -math.exp(-1.0) + 1e-16:
        return -1.0
    lo, hi = -1.0, max(1.0, math.log1p(max(x, 0.0)) + 1.0)
    for _ in range(200):
        if hi - lo <= 1e-14:
            break
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - x > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_bisect_lambert_arrays_equal_scalar_loop():
    rng = np.random.default_rng(31)
    branch = -1.0 / math.e
    xs = np.concatenate([
        branch + 10.0 ** rng.uniform(-17.0, math.log10(-branch), 150),
        10.0 ** rng.uniform(-12.0, 6.0, 150),
        [branch, branch + 1e-16, -0.0, 0.0, 1.0, math.e, 1e6, 1e300],
    ])
    want = np.array([_scalar_bisect_lambert(x) for x in xs.tolist()])
    assert bisect_lambert(xs).tobytes() == want.tobytes()
    order = rng.permutation(xs.size)
    got = bisect_lambert(xs[order].reshape(2, -1, 2))
    assert got.shape == (2, xs.size // 4, 2)
    assert got.ravel().tobytes() == want[order].tobytes()
    for x in xs[::37].tolist():
        w = bisect_lambert(x)
        assert type(w) is float and w == _scalar_bisect_lambert(x)
    assert bisect_lambert(branch) == -1.0
    assert bisect_lambert(np.array(2.5)).__class__ is float


@pytest.mark.parametrize("bad", [math.nan, -1.0, -1.0 / math.e - 1e-9])
def test_bisect_lambert_names_the_bad_element(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        bisect_lambert(np.array([0.5, bad, 2.0]))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        bisect_lambert(bad)


def _scalar_offload_tolerance(params, gd, go, spec, tau_o):
    """One element of offload_grid_tolerance, written as a scalar formula."""
    bits = params.bits_per_frame
    a = params.noise_server / go
    u = bits / (params.bw_offload * tau_o)
    if u > 900.0:
        return math.inf
    lip = (a * abs((2.0 ** u - 1.0) - u * math.log(2.0) * 2.0 ** u)
           + params.eh_efficiency * (gd + params.noise_dev))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    if spec.refine_iters > 0:
        delta = 2.0 * spec.resolution * golden ** spec.refine_iters + 1e-15
    else:
        delta = spec.resolution
    base = (lip * params.frame_duration + a * 2.0 ** u * tau_o
            + params.decode_energy_per_bit * bits)
    return lip * delta + 1e-12 * max(base, 1e-30)


@pytest.mark.parametrize("refine_iters", [0, 60])
def test_offload_tolerance_arrays_equal_scalar_formula(params, refine_iters):
    rng = np.random.default_rng(37)
    spec = replace(GridSpec.for_frame(params.frame_duration),
                   refine_iters=refine_iters)
    gd, go = _feasible_pairs(params, rng, 60)
    tau_o = np.concatenate([
        solve_frames(params, gd, go)[1].tau_o[:-3],
        # u just below and above the 900 cap, and far above it
        params.bits_per_frame / (params.bw_offload * np.array([899.0, 901.0, 1e6]))])
    got = offload_grid_tolerance(params, gd, go, spec, tau_o)
    want = [_scalar_offload_tolerance(params, *e, spec=spec, tau_o=t)
            for *e, t in zip(gd.tolist(), go.tolist(), tau_o.tolist())]
    assert got.tolist() == want
    assert np.isinf(got[-2:]).all() and np.isfinite(got[:-2]).all()
    for g, h, t, w in zip(gd.tolist(), go.tolist(), tau_o.tolist(), want):
        one = offload_grid_tolerance(params, g, h, spec, t)
        assert type(one) is float and one == w
