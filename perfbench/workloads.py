"""The benchmark's workloads: the swiptfog CLI calls each one makes per
repetition, and the checks on what those calls write.

Each workload gives
  commands(out, seed)  the argv lists passed to swiptfog.cli.main, in order;
  prepare(out)         input files written once, before timing starts;
  check(out, codes)    an Outcome: failed operations, and values reported;
  frames_per_rep       frames simulated per repetition;
  instances_per_rep    instances verified per repetition;
  ops_per_rep          checked operations per repetition.

An operation is one monte_carlo call (mc_outage) or one verify instance
(verify_grid).
"""

import csv
import math
from dataclasses import dataclass, field


@dataclass
class Outcome:
    failed: int
    facts: dict = field(default_factory=dict)


def cli_seed(seed):
    """The CLI master seed for a benchmark seed.  monte_carlo seeds trial t
    with master_seed ^ t, so master seeds that differ only in their low
    eight bits run the same trials in another order; spacing them 256 apart
    gives each benchmark seed trials of its own (up to 256 per call)."""
    return str(seed * 256)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class McOutage:
    """simulate on the criterion-6 problem at three AP-device distances,
    one process (--jobs 1)."""

    name = "mc_outage"
    max_outage_near = 0.05

    def __init__(self, frames=100, trials=250, distances=(6.0, 10.0, 15.0)):
        self.frames, self.trials, self.distances = frames, trials, distances
        self.frames_per_rep = frames * trials * len(distances)
        self.instances_per_rep = 0
        self.ops_per_rep = len(distances)

    def _dir(self, out, d):
        return out / f"d{d:g}"

    def prepare(self, out):
        for d in self.distances:
            self._dir(out, d).mkdir(parents=True, exist_ok=True)
            (self._dir(out, d) / "params.cfg").write_text(
                f"ops_per_bit = 10000.0\ndist_ap_dev = {d!r}\n")

    def commands(self, out, seed):
        return [["simulate", "--config", str(self._dir(out, d) / "params.cfg"),
                 "--seed", cli_seed(seed), "--frames", str(self.frames),
                 "--trials", str(self.trials), "--jobs", "1",
                 "--out-dir", str(self._dir(out, d))]
                for d in self.distances]

    def check(self, out, codes):
        """Each call exits 0 and keeps mean storage >= 0; outage at the
        nearest distance is below max_outage_near, and outage does not fall
        with distance.  Outage at the farthest distance is reported, not
        checked: its miss of the criterion-6 band is a known defect."""
        bad = [code != 0 for code in codes]
        outages = []
        for i, d in enumerate(self.distances):
            try:
                rows = _read_csv(self._dir(out, d) / "frames.csv")
                storage = [float(r["mean_storage"]) for r in rows]
                outage = math.fsum(float(r["outage_rate"]) for r in rows) / len(rows)
            except (OSError, KeyError, ValueError, ZeroDivisionError):
                bad[i] = True
                outages.append(math.nan)
                continue
            bad[i] |= len(rows) != self.frames or min(storage) < 0.0
            outages.append(outage)
        bad[0] |= not outages[0] < self.max_outage_near
        for i in range(1, len(outages)):
            bad[i] |= not outages[i - 1] <= outages[i]
        facts = {f"outage_{d:g}m": o for d, o in zip(self.distances, outages)}
        return Outcome(sum(bad), facts)


class VerifyGrid:
    """verify: closed forms against the brute-force grid; never touches the
    channel or the simulator."""

    name = "verify_grid"

    def __init__(self, instances=2000):
        self.instances = instances
        self.frames_per_rep = 0
        self.instances_per_rep = instances
        self.ops_per_rep = instances

    def prepare(self, out):
        out.mkdir(parents=True, exist_ok=True)

    def commands(self, out, seed):
        return [["verify", "--instances", str(self.instances),
                 "--seed", cli_seed(seed), "--jobs", "1", "--out-dir", str(out)]]

    def check(self, out, codes):
        """The call exits 0 (every certificate held); each instance's row
        says pass."""
        try:
            rows = _read_csv(out / "verify.csv")
        except OSError:
            return Outcome(self.ops_per_rep)
        if codes != [0]:
            return Outcome(self.ops_per_rep)
        passed = sum(1 for r in rows if r.get("status") == "pass")
        return Outcome(self.ops_per_rep - min(passed, self.ops_per_rep))


WORKLOADS = {"mc_outage": McOutage, "verify_grid": VerifyGrid}
