"""Boundary fuzz of the command line: configuration texts with values at
and past the edges of their ranges, and argument lists for the four
subcommands, run in process.  Every run ends with a documented exit code,
exits 1 and 2 say why on one error line, no warning escapes, and every CSV
cell is finite unless the README says its column can be NaN."""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from swiptfog import SystemParams
from swiptfog.cli import main

_KEYS = [f.name for f in fields(SystemParams)]
_EDGE_VALUES = ["nan", "inf", "-inf", "-0", "0", "1e308", "-1e308", "",
                "5e-324", "1e-300", "true", "abc"]
# A valid count stays tiny; the one large count is a petabyte array, which
# numpy refuses at once.
_ANTENNAS = ["1", "2", "8", "0", "-1", "2.5", "1000000000000000"]

# Columns whose cells the README's CSV schema says can be nan (sweep).
_NAN_COLUMNS = {
    "sweep_": {"outage_ci", "mean_cost_local", "mean_e_compute",
               "mean_e_harvest_local", "mean_cost_offload", "mean_e_offload",
               "mean_e_harvest_offload", "mean_e_decode"},
    "frames.csv": set(),
    "verify.csv": set(),
}
_TEXT_COLUMNS = {"axis", "status"}


@st.composite
def _config_line(draw):
    key = draw(st.sampled_from(_KEYS + ["bogus_key"]))
    if key == "n_antennas":
        value = draw(st.sampled_from(_ANTENNAS + _EDGE_VALUES))
    else:
        default = getattr(SystemParams, key, 1.0)
        near = [repr(default)] if isinstance(default, bool) else [
            repr(default * scale) for scale in (1, 1e3, 1e-3)]
        value = draw(st.sampled_from(near + _EDGE_VALUES))
    return f"{key} = {value}"


_configs = st.lists(_config_line(), max_size=3).map("\n".join)

_seeds = st.sampled_from(["0", "1", "7", "-1"])
_counts = {"frames": 5, "trials": 3, "instances": 5, "repeat": 5}


def _count(name):
    return st.sampled_from([str(n) for n in range(1, _counts[name] + 1)]
                           + ["0", "-2", "x"])


_gains = st.sampled_from(["0", "1e-9", "1e-6", "1e-3", "1e100", "1e290",
                          "1e308", "nan", "inf", "-1e-6"])
_values = st.lists(st.sampled_from(["1", "6", "15", "1e3", "1e9", "1e308",
                                    "0.5", "-1", "nan", ""]),
                   min_size=1, max_size=3).map(",".join)


def _options(**choices):
    """Each option of choices, or none of it, as an argv fragment."""
    return st.tuples(*(st.one_of(st.just(()), value.map(
        lambda v, flag=flag: (f"--{flag.replace('_', '-')}", v)))
        for flag, value in choices.items())).map(
            lambda parts: [arg for part in parts for arg in part])


def _given(**choices):
    """Each option of choices, always given, as an argv fragment."""
    return st.tuples(*(value.map(
        lambda v, flag=flag: [f"--{flag.replace('_', '-')}", v])
        for flag, value in choices.items())).map(
            lambda parts: [arg for part in parts for arg in part])


_argvs = st.one_of(
    st.tuples(st.just(["allocate"]),
              st.one_of(_given(seed=_seeds),
                        _given(gain_down=_gains, gain_offload=_gains),
                        _options(seed=_seeds, gain_down=_gains)),
              _options(repeat=_count("repeat"),
                       e_stored=st.sampled_from(["0", "1e-6", "inf", "nan", "-1"]))),
    st.tuples(st.just(["simulate"]), _given(seed=_seeds),
              _options(frames=_count("frames"), trials=_count("trials"))),
    st.tuples(st.just(["sweep"]),
              _given(seed=_seeds, axis=st.sampled_from(
                  ["ops-per-bit", "dist-ap-dev", "dist-dev-server", "bogus"]),
                     values=_values),
              _options(frames=_count("frames"), trials=_count("trials"))),
    st.tuples(st.just(["verify"]), _given(seed=_seeds),
              _options(instances=_count("instances"))),
    # a missing command or required option
    st.sampled_from([([],), (["sweep", "--seed", "1"],), (["verify"],)]),
).map(lambda parts: [arg for part in parts for arg in part])


def _check_csv(path):
    name = os.path.basename(path)
    nan_ok = next(cols for prefix, cols in _NAN_COLUMNS.items()
                  if name.startswith(prefix))
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows, name
    for row in rows:
        assert len(row) == len(header), (name, row)
        for column, cell in zip(header, row):
            if column in _TEXT_COLUMNS:
                continue
            value = float(cell)
            assert math.isfinite(value) or (math.isnan(value) and column in nan_ok), (
                name, column, cell)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_configs, argv=_argvs)
# found by a longer random run: an inf cost reached the sweep CSV
@example(config="decode_energy_per_bit = 1e308",
         argv=["sweep", "--seed", "0", "--axis", "ops-per-bit", "--values", "1"])
# the mode rule's harvest_rate / dev_ops_per_sec overflowed with a warning
@example(config="dev_ops_per_sec = 5e-324",
         argv=["simulate", "--seed", "1", "--frames", "3", "--trials", "2"])
# the storage recursion overflowed with warnings, then fsum raised
@example(config="noise_dev = 1e308",
         argv=["sweep", "--seed", "0", "--axis", "dist-dev-server", "--values",
               "1e9", "--frames", "5", "--trials", "2"])
def test_cli_ends_with_a_documented_exit_and_finite_csv_cells(config, argv):
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = os.path.join(out_dir, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(config + "\n")
        csv_dir = os.path.join(out_dir, "out")
        if argv[:1] != ["allocate"]:
            argv = [*argv, "--out-dir", csv_dir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", cfg])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (code, err)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err
        if code in (1, 2):
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1, err
        if os.path.isdir(csv_dir):
            for name in os.listdir(csv_dir):
                _check_csv(os.path.join(csv_dir, name))
