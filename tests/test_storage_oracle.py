"""Density evolution of the storage chain: an oracle for monte_carlo.

Each frame draws a fresh channel, so each frame's pair (chosen cost c, inf
where no mode is feasible; full-frame harvest h) has one joint law, the same
in every frame.  The level starts at 0 and moves to S - c where c <= S and to
S + h elsewhere, so it is a Markov chain: the per-frame outage is
E[P(c > S_f)] and the mean storage E[S_f], both from the law of S_f alone.

The law is sampled with draw_gains, solve_frames and choose_modes from a
generator of its own, not the simulate stream.  S lives on a uniform grid of
K levels over [0, top], top 20 times the largest finite cost; a level that
would pass top is held at top, and a landing point is split between its two
neighbours, which keeps its mass and mean.  On the grid the landing offset
of a sample does not depend on the level, so the transition matrix is formed
from two tables of offsets, summed over the samples each level affords or
does not.  A grid of 400 levels over all reachable ones, [0, frames * max
h], has 26 and 10 times this step at 10 and 15 m, where the level stays
below 7e-6 J: its outage in frame 3 at 15 m is off by 0.1 (0.573 against
0.471).

Bounds, from the oracle at N = 5e4, 1e5, 2e5 law samples, K = 400, 800,
1500 levels and two law seeds, against N = 2e5, K = 1500: at N = 1e5, K =
800 the mean outage moves by at most 0.0017 (10 m, the other law seed), a
frame's outage by 0.0036 and the mean storage by 0.5 %; K = 400 moves them
by 0.0042 and 0.5 %.  At 6 m a top of 10 largest costs gives the same
outage to 1e-6.  The oracle's mean-outage error is taken as twice the
binomial standard error of an outage from N samples (0.0030 at 10 m,
0.00017 at 6 m), and the mean storage's as 1 %.  Monte Carlo's own error
is its outage CI, binomial per frame, and the oracle's storage spread over
sqrt(trials).  A frame's
bound adds two trials' share, 2 / trials: one for the oracle's error, one
for a frame whose outage is so small (6 m after frame 1) that its count of
outages is not near normal.  On output version 4, over Monte Carlo seeds 0
to 302 every check holds at each distance, the worst at 0.96 of its bound
(a frame's outage at 15 m, seed 4).  At 6 m the
level passes top within a few frames, which leaves the outage alone (it is
below 1e-4 from frame 3 on, and a level at top affords 20 largest costs)
but not the storage, so there only outages are compared.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from swiptfog.allocator import choose_modes, solve_frames
from swiptfog.channel import draw_gains
from swiptfog.params import load_params
from swiptfog.sim import monte_carlo

_N, _K, _FRAMES, _TRIALS = 100_000, 800, 100, 250


def _law(params, n, seed):
    """n draws of (chosen cost, full-frame harvest), one per fresh channel."""
    gains = draw_gains(params, np.random.default_rng(seed), n)
    local, offload = solve_frames(params, *gains)
    cost = np.where(choose_modes(params, local, offload), offload.cost, local.cost)
    return cost, local.harvest_rate * params.frame_duration


def _offsets(k, first, shift, weight):
    """(k + 1, 2k + 2) table: by affordability index (row) and grid offset
    plus k (column), the weight of the samples landing there, each split
    between the two levels around its shift (at most k: past top anyway)."""
    shift = np.minimum(shift, k)
    lo = np.floor(shift)
    frac = shift - lo
    at = first * (2 * k + 2) + lo.astype(np.int64) + k
    return np.bincount(np.concatenate([at, at + 1]),
                       np.concatenate([weight * (1.0 - frac), weight * frac]),
                       minlength=(k + 1) * (2 * k + 2)).reshape(k + 1, 2 * k + 2)


def _evolve(cost, harvest, k, n_frames):
    """Per-frame outage, mean and standard deviation of the start-of-frame
    level and the mass held at top, from an empty start, on k grid levels."""
    top = 20.0 * cost[np.isfinite(cost)].max()
    step = top / (k - 1)
    levels = step * np.arange(k)
    first = np.searchsorted(levels, cost)  # the lowest level that affords it
    weight = np.full(cost.size, 1.0 / cost.size)
    paid = first < k
    pays = np.cumsum(_offsets(k, first[paid], -cost[paid] / step, weight[paid]),
                     axis=0)[:k]  # level i pays the costs of rows <= i
    harvests = _offsets(k, first, harvest / step, weight)
    harvests = harvests.sum(axis=0) - np.cumsum(harvests, axis=0)[:k]
    rows = np.arange(k)[:, None]
    cols = np.clip(rows + np.arange(2 * k + 2) - k, 0, k - 1)
    trans = np.bincount((rows * k + cols).ravel(), (pays + harvests).ravel(),
                        minlength=k * k).reshape(k, k)
    outage_at = 1.0 - np.cumsum(np.bincount(first, minlength=k + 1))[:k] / cost.size
    p = np.zeros(k)
    p[0] = 1.0
    outage, mean, sd, held = (np.empty(n_frames) for _ in range(4))
    for f in range(n_frames):
        outage[f], mean[f], held[f] = p @ outage_at, p @ levels, p[-1]
        sd[f] = math.sqrt(max(p @ levels**2 - mean[f] ** 2, 0.0))
        p = p @ trans
    return outage, mean, sd, held


@pytest.mark.parametrize("dist,storage", [(6.0, False), (10.0, True), (15.0, True)])
def test_monte_carlo_agrees_with_density_evolution(dist, storage):
    p = replace(load_params(""), ops_per_bit=1e4, dist_ap_dev=dist)
    outage, mean, sd, held = _evolve(*_law(p, _N, 2024), _K, _FRAMES)
    mc = monte_carlo(p, _FRAMES, _TRIALS, 303)
    o = outage.mean()
    bound = 2.0 * mc.outage_ci + 2.0 * math.sqrt(o * (1.0 - o) / _N)
    assert abs(mc.outage - o) <= bound, (mc.outage, o)
    per_frame = np.abs(np.array(mc.outage_per_frame) - outage)
    bound = 4.5 * np.sqrt(outage * (1.0 - outage) / _TRIALS) + 2.0 / _TRIALS
    assert (per_frame <= bound).all(), np.flatnonzero(per_frame > bound)
    if storage:
        assert held.max() < 1e-9  # top is out of reach: the means are unbiased
        per_frame = np.abs(np.array(mc.mean_storage) - mean)
        bound = 4.5 * sd / math.sqrt(_TRIALS) + 0.01 * mean
        assert (per_frame <= bound).all(), np.flatnonzero(per_frame > bound)
