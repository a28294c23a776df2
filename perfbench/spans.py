"""Spans around the calls into each swiptfog layer, for the traced run.

The recorder replaces module-level functions with timing wrappers, at the
names that the *calling* module looks up: ``swiptfog.sim.realize_channels``
is the name the simulator calls, ``swiptfog.allocator.lambert_w0`` the name
the offload solver calls.  Nothing under ``src/`` changes; ``restore`` puts
every original function back.

Spans live in memory as four parallel arrays (name id, parent index, start,
end) until the run ends.  A span's self time is its duration minus the time
its child spans cover; calls within one process nest, so children never
overlap and that covered time is the sum of their durations.

Only the process that installed the wrappers records spans, so workloads
with frame-level spans run ``--jobs 1``.
"""

import importlib
import time
from array import array

import numpy as np


def _feasible(result):
    return result.feasible


# (module the caller looks the name up in, attribute, span name, outcome to
# count among the results).  Span names are "<layer>.<function>".
TARGETS = (
    ("swiptfog.cli", "load_params", "params.load_params", None),
    ("swiptfog.cli", "monte_carlo", "sim.monte_carlo", None),
    ("swiptfog.sim", "realize_channels", "channel.realize_channels", None),
    ("swiptfog.channel", "draw_rician", "channel.draw_rician", None),
    ("swiptfog.channel", "conjugate_beamform", "channel.conjugate_beamform", None),
    ("swiptfog.sim", "evaluate_strategies", "allocator.evaluate_strategies", None),
    ("swiptfog.cli", "evaluate_strategies", "allocator.evaluate_strategies", None),
    ("swiptfog.allocator", "solve_local", "allocator.solve_local", _feasible),
    ("swiptfog.allocator", "solve_offload", "allocator.solve_offload", _feasible),
    ("swiptfog.allocator", "lambert_w0", "allocator.lambert_w0", None),
    ("swiptfog.cli", "lambert_w0", "allocator.lambert_w0", None),
    ("swiptfog.sim", "decide", "allocator.decide", None),
    ("swiptfog.allocator", "decision_inequality", "allocator.decision_inequality", None),
    ("swiptfog.cli", "decision_inequality", "allocator.decision_inequality", None),
    ("swiptfog.allocator", "decode_energy", "energy.decode_energy", None),
    ("swiptfog.allocator", "compute_energy", "energy.compute_energy", None),
    ("swiptfog.allocator", "harvested_energy", "energy.harvested_energy", None),
    ("swiptfog.allocator", "frame_cost", "energy.frame_cost", None),
    ("swiptfog.cli", "offload_bits", "energy.offload_bits", None),
    ("swiptfog.bruteforce", "brute_local", "bruteforce.brute_local", None),
    ("swiptfog.bruteforce", "brute_offload", "bruteforce.brute_offload", None),
    ("swiptfog.bruteforce", "bisect_lambert", "bruteforce.bisect_lambert", None),
    ("swiptfog.bruteforce", "local_grid_tolerance",
     "bruteforce.local_grid_tolerance", None),
    ("swiptfog.bruteforce", "offload_grid_tolerance",
     "bruteforce.offload_grid_tolerance", None),
)

# The benchmark's own span around each swiptfog.cli.main call.
CLI_SPAN = "cli.main"


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._installed = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits = []
        self._stack = [-1]

    def clear(self):
        """Drop recorded spans and outcome counts; wrappers stay installed.
        Clears in place, because the wrappers hold the arrays."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.hits[:] = [0] * len(self.hits)
        self._stack[:] = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.hits.append(0)
        return self._ids[name]

    def wrap(self, name, fn, outcome=None):
        """Return fn timed as span `name`; count results for which outcome
        is true."""
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, hits = self._stack, self.hits

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                hits[nid] += 1
            return result

        return wrapper

    def install(self, targets=TARGETS):
        for module_name, attr, name, outcome in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, outcome))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def arrays(self):
        """Copies of the span arrays (a view would pin their size)."""
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self):
        """Per span name: [calls, inclusive s, self s, outcome hits]."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=dur.size)
        calls = np.bincount(a["name_id"], minlength=n_names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=dur - covered, minlength=n_names)
        return {name: [int(calls[i]), float(incl[i]), float(own[i]),
                       self.hits[i]]
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path):
        """Write the spans as arrays plus the name table (.npz)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def add_summary(total, summary):
    """Accumulate one summary() into another, in place."""
    for name, row in summary.items():
        acc = total.setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(row):
            acc[i] += v


def layer_metrics(total, reps, frames_simulated, instances, overhead_ratio):
    """The per-layer metrics from summed span summaries of `reps` traced reps.

    A "frame" is one evaluate_strategies call: one simulated frame, or one
    verify gain pair.  frames_simulated and instances are per rep, as the
    workload defines them.  A function the workload never calls in the
    traced process reports 0.
    """
    def get(name, col):
        return total.get(name, [0, 0.0, 0.0, 0])[col]

    def calls(name):
        return get(name, 0)

    def incl(name):
        return get(name, 1)

    def own(name):
        return get(name, 2)

    def per(value, count, scale=1e6):
        return value * scale / count if count else 0.0

    def layer(prefix, col):
        return sum(row[col] for name, row in total.items()
                   if name.startswith(prefix + "."))

    frames = calls("allocator.evaluate_strategies")
    m = {
        "channel.realize_us_per_frame": (per(incl("channel.realize_channels"), frames), "us"),
        "channel.draw_rician_us_per_frame": (per(incl("channel.draw_rician"), frames), "us"),
        "channel.beamform_us_per_frame": (per(incl("channel.conjugate_beamform"), frames), "us"),
        "allocator.evaluate_us_per_frame": (per(incl("allocator.evaluate_strategies"), frames), "us"),
        "allocator.solve_local_us": (per(incl("allocator.solve_local"), calls("allocator.solve_local")), "us"),
        "allocator.solve_offload_self_us": (per(own("allocator.solve_offload"), calls("allocator.solve_offload")), "us"),
        "allocator.lambert_w0_us": (per(incl("allocator.lambert_w0"), calls("allocator.lambert_w0")), "us"),
        "allocator.decide_self_us": (per(own("allocator.decide"), calls("allocator.decide")), "us"),
        "allocator.decision_inequality_us": (per(incl("allocator.decision_inequality"), calls("allocator.decision_inequality")), "us"),
        "allocator.local_feasible_ratio": (per(get("allocator.solve_local", 3), calls("allocator.solve_local"), 1.0), "ratio"),
        "allocator.offload_feasible_ratio": (per(get("allocator.solve_offload", 3), calls("allocator.solve_offload"), 1.0), "ratio"),
        "energy.us_per_frame": (per(layer("energy", 1), frames), "us"),
        "energy.calls_per_frame": (per(layer("energy", 0), frames, 1.0), "count"),
        "sim.self_us_per_frame": (per(layer("sim", 2), frames_simulated * reps), "us"),
        "sim.monte_carlo_s_per_call": (per(incl("sim.monte_carlo"), calls("sim.monte_carlo"), 1.0), "s"),
        "params.load_params_us": (per(incl("params.load_params"), calls("params.load_params")), "us"),
        "bruteforce.brute_local_us": (per(incl("bruteforce.brute_local"), calls("bruteforce.brute_local")), "us"),
        "bruteforce.brute_offload_us": (per(incl("bruteforce.brute_offload"), calls("bruteforce.brute_offload")), "us"),
        "bruteforce.bisect_lambert_us": (per(incl("bruteforce.bisect_lambert"), calls("bruteforce.bisect_lambert")), "us"),
        "bruteforce.share_of_wall": (per(layer("bruteforce", 2), incl(CLI_SPAN), 1.0), "ratio"),
        "cli.self_s": (per(own(CLI_SPAN), reps, 1.0), "s"),
        "cli.evaluate_calls_per_instance": (per(frames, instances * reps, 1.0), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def sim_self_share(total):
    """Self time of the sim spans over the inclusive monte_carlo time: the
    share of the simulator's time that no channel, allocator or energy
    wrapper covers.  The self times of all spans under monte_carlo add up
    to its inclusive time by construction, so their sum checks nothing;
    this share grows when the wrappers miss work."""
    mc = total.get("sim.monte_carlo", [0, 0.0, 0.0, 0])[1]
    own = sum(row[2] for name, row in total.items() if name.startswith("sim."))
    return own / mc if mc else 0.0
