import csv
import ctypes
import hashlib
import logging
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import random_gain_pairs

import swiptfog
from swiptfog import _ieee, cli, sim
from swiptfog.allocator import solve_frames
from swiptfog.cli import certify, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_with_explicit_gains_reports_local(capsys):
    code, out, _ = run(capsys, "allocate",
                       "--gain-down", "1e-6", "--gain-offload", "1e-7")
    assert code == 0
    assert "decision: local (i_o=0)" in out
    assert "offload:" in out and "local  :" in out


def test_allocate_with_explicit_gains_reports_offload(capsys):
    # strong offload path flips the decision
    code, out, _ = run(capsys, "allocate",
                       "--gain-down", "1e-6", "--gain-offload", "1e-5")
    assert code == 0
    assert "decision: offload (i_o=1)" in out


def test_allocate_requires_seed_without_gains(capsys):
    code, _, err = run(capsys, "allocate")
    assert code == 1
    assert "--seed" in err


def test_allocate_seeded_runs_are_identical(capsys):
    code1, out1, _ = run(capsys, "allocate", "--seed", "7")
    code2, out2, _ = run(capsys, "allocate", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_allocate_infeasible_everywhere_reports_harvest_and_exits_zero(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    # compute budget exactly saturated: local impossible; zero offload gain
    cfg.write_text("ops_per_bit = 50000\n")
    code, out, _ = run(capsys, "allocate", "--config", str(cfg),
                       "--gain-down", "1e-6", "--gain-offload", "0")
    assert code == 0
    assert "harvest_only" in out
    assert "no feasible strategy" in out


def test_allocate_repeat_reports_decision_fractions(capsys):
    code, out, _ = run(capsys, "allocate", "--seed", "3", "--repeat", "50")
    assert code == 0
    assert "over 50 draws:" in out


def test_allocate_majority_offload_at_high_op_count(capsys, tmp_path):
    # many operations per bit make remote execution the common choice
    cfg = tmp_path / "p.cfg"
    cfg.write_text("ops_per_bit = 10000\n")
    code, out, _ = run(capsys, "allocate", "--config", str(cfg),
                       "--seed", "11", "--repeat", "300")
    assert code == 0
    frac = float(out.split("offload=")[-1].split()[0])
    assert frac > 0.5


def test_usage_error_exit_code(capsys):
    assert run(capsys, "sweep", "--seed", "1")[0] == 1      # missing required
    assert run(capsys, "nonsense")[0] == 1                  # unknown command


def test_bad_config_exit_code(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eh_efficiency = 0\n")
    code, _, err = run(capsys, "allocate", "--config", str(cfg),
                       "--gain-down", "1e-6", "--gain-offload", "1e-7")
    assert code == 2
    assert "eh_efficiency" in err


def test_non_finite_or_sub_metre_config_exits_2_at_load(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("decode_energy_per_bit = nan", "pathloss_coeff = nan",
                 "dist_ap_dev = 0.5"):
        cfg.write_text(line + "\n")
        key = line.split()[0]
        for argv in (("allocate", "--gain-down", "1e-6", "--gain-offload", "1e-7"),
                     ("simulate", "--seed", "1", "--frames", "2", "--trials", "1",
                      "--jobs", "1", "--out-dir", str(tmp_path))):
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert (code, out) == (2, ""), (line, argv[0])
            assert key in err
    assert not (tmp_path / "frames.csv").exists()


def test_bad_sweep_value_or_repeated_key_exits_2_before_simulating(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(sim, "_monte_carlo",
                        lambda *args: calls.append(args) or pytest.fail())
    code, out, err = run(capsys, "sweep", "--seed", "1", "--axis", "dist-ap-dev",
                         "--values", "6,0.5", "--out-dir", str(tmp_path))
    assert (code, out, calls) == (2, "", [])
    assert "dist_ap_dev must be at least 1.0" in err
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_antennas = 4\nn_antennas = 2\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--seed", "1",
                         "--out-dir", str(tmp_path))
    assert (code, out, calls) == (2, "", [])
    assert "line 2" in err and "'n_antennas'" in err and "line 1" in err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_writes_deterministic_csv(capsys, tmp_path):
    args = ("sweep", "--seed", "5", "--axis", "ops-per-bit",
            "--values", "1e3,1e4", "--frames", "10", "--trials", "2",
            "--jobs", "1", "--out-dir", str(tmp_path / "a"))
    assert run(capsys, *args)[0] == 0
    args2 = args[:-1] + (str(tmp_path / "b"),)
    assert run(capsys, *args2)[0] == 0
    a = (tmp_path / "a" / "sweep_ops_per_bit.csv").read_bytes()
    b = (tmp_path / "b" / "sweep_ops_per_bit.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header.startswith("axis,value,mean_cost_local")


def test_sweep_csv_header_is_strategy_averages_fields(capsys, tmp_path):
    names = tuple(f.name for f in fields(sim.StrategyAverages))
    assert cli._SWEEP_COLUMNS == ("axis", "value", *names, "outage", "outage_ci")
    code, _, _ = run(capsys, "sweep", "--seed", "1", "--axis", "ops-per-bit",
                     "--values", "1e3", "--frames", "5", "--trials", "2",
                     "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "sweep_ops_per_bit.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == cli._SWEEP_COLUMNS and len(header) == 14
    assert [len(row) for row in rows] == [14]


def test_sweep_empty_values_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--seed", "1", "--axis", "ops-per-bit",
                       "--values", " ", "--frames", "5", "--trials", "1")
    assert code == 1
    assert "values" in err


def test_sweep_nan_cells_are_the_documented_ones(capsys, tmp_path):
    # README, "CSV schemas": outage_ci is NaN with one trial, and a mode's
    # cost and energy means are NaN where the mode is never feasible; at
    # 1e9 operations per bit local computing never is, offloading always is
    code, _, _ = run(capsys, "sweep", "--seed", "1", "--axis", "ops-per-bit",
                     "--values", "10,1e9", "--frames", "5", "--trials", "1",
                     "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "sweep_ops_per_bit.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    local_means = {"mean_cost_local", "mean_e_compute", "mean_e_harvest_local"}
    want = [{"outage_ci"}, {"outage_ci"} | local_means]
    assert [{k for k, v in row.items() if k != "axis" and math.isnan(float(v))}
            for row in rows] == want


def test_sweep_jobs_flag_does_not_change_output(capsys, tmp_path):
    base = ("sweep", "--seed", "9", "--axis", "dist-ap-dev",
            "--values", "6,10", "--frames", "8", "--trials", "4")
    run(capsys, *base, "--jobs", "1", "--out-dir", str(tmp_path / "j1"))
    run(capsys, *base, "--jobs", "2", "--out-dir", str(tmp_path / "j2"))
    a = (tmp_path / "j1" / "sweep_dist_ap_dev.csv").read_bytes()
    b = (tmp_path / "j2" / "sweep_dist_ap_dev.csv").read_bytes()
    assert a == b


def test_simulate_writes_frame_stats(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--seed", "2", "--frames", "12",
                       "--trials", "3", "--jobs", "1",
                       "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "frames.csv").read_text().splitlines()
    assert lines[0] == "frame,mean_storage,outage_rate"
    assert len(lines) == 13
    assert "outage=" in out


def test_verify_passes_and_writes_report(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--seed", "4", "--instances", "10",
                       "--jobs", "1", "--out-dir", str(tmp_path))
    assert code == 0
    assert "verification passed" in out
    report = (tmp_path / "verify.csv").read_text().splitlines()
    assert len(report) == 11
    assert report[0].startswith("instance,")


def test_verify_fails_with_exit_3_when_the_grid_beats_the_closed_form(
        capsys, tmp_path, monkeypatch):
    """An oracle that finds local costs 1 mJ below the grid minimum, far
    below any closed-form optimum, fails every grid instance."""
    real = swiptfog.bruteforce.brute_local

    def too_cheap(*args):
        tau_d, tau_c, cost = real(*args)
        return tau_d, tau_c, cost - 1e-3

    monkeypatch.setattr(swiptfog.bruteforce, "brute_local", too_cheap)
    code, out, _ = run(capsys, "verify", "--seed", "4", "--instances", "20",
                       "--out-dir", str(tmp_path))
    assert code == 3
    assert "verification FAILED (20 check(s))" in out.splitlines()
    rows = (tmp_path / "verify.csv").read_text().splitlines()[1:]
    assert len(rows) == 20 and all(r.endswith(",fail") for r in rows)


@pytest.mark.parametrize("ops_per_bit,digest", [
    (None, "f2a3139d5ae3fa53f576ac694883d7334f337c873f0327b88834c22fd7214ca8"),
    (100.0, "147477aca93b4c575e081a4360227a0597218421599e73183189c82ac0ebbb1d"),
    (300.0, "94742ffc0f715af3b1bb36ca6fbf9bd84f51ee5b0680c197f97927482991fe82"),
], ids=["defaults", "ops-per-bit-100", "ops-per-bit-300"])
def test_verify_csv_bits_are_pinned(capsys, tmp_path, ops_per_bit, digest):
    """sha256 of verify.csv at seed 256 with 200 instances.  It holds the
    grid oracle's bits: a change to its operation order, its grid or its
    refine bracket moves the grid-cost columns.  The local grid pass sweeps
    runs of tens of decode cells at the defaults, of about 600 to 1400 at
    ops_per_bit 300 (blocks of several runs, and single runs) and of
    thousands at ops_per_bit 100 (single runs).

    The digest pins this platform's C library and numpy through the oracle
    and the gain draw: they evaluate log2, exp and pow through the math
    module and 2**u with numpy's exp2, and another libm or another numpy
    build may round them differently in the last bit.  The kernel's claims
    (output version 3) depend on neither.
    """
    config = []
    if ops_per_bit is not None:
        (tmp_path / "params.cfg").write_text(f"ops_per_bit = {ops_per_bit!r}\n")
        config = ["--config", str(tmp_path / "params.cfg")]
    code, out, _ = run(capsys, "verify", "--seed", "256", "--instances", "200",
                       "--jobs", "1", *config, "--out-dir", str(tmp_path))
    assert code == 0, out
    got = hashlib.sha256((tmp_path / "verify.csv").read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("seed,digest", [
    (256, "9958f3f4121768f57db17e41778a3cc7c6e3d118c264c1f2b611f64c082aa37d"),
    (1792, "12b13ea8ebb6133ffa4fc5c00141b83137291053d7a7c6550de45235479990f3"),
], ids=["seed-256", "seed-1792"])
def test_verify_benchmark_bits_are_pinned(capsys, caplog, tmp_path, seed,
                                          digest):
    """sha256 of verify.csv with 2000 instances at the CLI seeds of the
    verify_grid benchmark's seeds 1 and 7, as the 200-instance digests pin
    theirs; no pair of its offload grid falls back to the full sweep."""
    caplog.set_level(logging.DEBUG, logger="swiptfog.bruteforce")
    code, out, _ = run(capsys, "verify", "--seed", str(seed), "--instances",
                       "2000", "--out-dir", str(tmp_path))
    assert code == 0, out
    got = hashlib.sha256((tmp_path / "verify.csv").read_bytes()).hexdigest()
    assert got == digest
    fell = [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("offload grid:")]
    assert len(fell) == 1 and fell[0].startswith(
        "offload grid: 0 of 2000 pairs fell back to the full sweep")


def _repr_cell(value):
    """A value's cell as csv.writer would write its repr: text as it is, a
    numpy scalar as the Python number it holds."""
    if isinstance(value, str):
        return value
    return repr(value.item() if isinstance(value, np.generic) else value)


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    header = ("instance", "value", "status")
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e+300, 2 ** 70,
              -(10 ** 30), 0.1, "text", np.float64(0.1), np.float64(math.nan),
              np.float64(math.inf), np.float64(-math.inf), np.float64(-0.0),
              np.float64(5e-324), np.float64(1e+300), np.int64(-7)]
    rows = [(i, x, ("pass", "fail")[i % 2]) for i, x in enumerate(values)]
    path = cli._write_csv(str(tmp_path / "new"), "out.csv", header, rows)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_repr_cell(cell) for cell in row] for row in rows)
    assert open(path, "rb").read() == (tmp_path / "want.csv").read_bytes()
    for cell in ("1,5", 'say "x"', "a\nb", "a\rb", "a\r\nb"):
        with pytest.raises(ValueError, match="a cell holds"):
            cli._write_csv(str(tmp_path), "bad.csv", header,
                           [*rows, (9, cell, "pass")])
        with pytest.raises(ValueError, match="a cell holds"):
            cli._write_csv(str(tmp_path), "bad.csv", ("instance", cell), [])
    with pytest.raises(ValueError, match="a line is empty"):
        cli._write_csv(str(tmp_path), "bad.csv", header, [*rows, ("",)])
    assert not (tmp_path / "bad.csv").exists()


def test_simulate_frames_csv_bits_are_pinned(capsys, tmp_path):
    """sha256 of frames.csv at seed 256, 50 frames x 40 trials (two trial
    chunks).  It pins output version 3 (sim.STREAM_VERSION): the trial
    seeds, the one-call normal draw per trial, the dominant-path amplitudes
    and the kernel's arithmetic.

    Of the C library, only the per-configuration path-loss scale enters
    (log10 and a power of 10); the gains and the kernel use IEEE-754 basic
    operations alone.
    """
    code, out, _ = run(capsys, "simulate", "--seed", "256", "--frames", "50",
                       "--trials", "40", "--jobs", "1", "--out-dir", str(tmp_path))
    assert code == 0, out
    digest = hashlib.sha256((tmp_path / "frames.csv").read_bytes()).hexdigest()
    assert digest == (
        "7aa433b991d19bc4ab6c3f5c00195e1f05091c50cafeebf75d368cc3c54395de")


@pytest.mark.parametrize("axis,values,digest", [
    ("ops-per-bit", "1e3,1e4,2e4",
     "40d21e288cd174ee14f8a541ed083872e7a0be79bc98e66f4df26b43c33ae968"),
    ("dist-ap-dev", "3,9,15",
     "e769db258965094ff5bc7ca4268249a69f0bc70ab458b7b2c4528c2d149ccf06"),
], ids=["ops-per-bit", "dist-ap-dev"])
def test_sweep_csv_bits_are_pinned(capsys, tmp_path, axis, values, digest):
    """sha256 of the sweep CSV at seed 256, 30 frames x 40 trials (two trial
    chunks) per value.  It pins the per-strategy means, the decision
    fractions and the outage columns, on top of output version 3; what the
    frames.csv digest says of the C library holds here too."""
    code, out, _ = run(capsys, "sweep", "--seed", "256", "--axis", axis,
                       "--values", values, "--frames", "30", "--trials", "40",
                       "--out-dir", str(tmp_path))
    assert code == 0, out
    name = f"sweep_{axis.replace('-', '_')}.csv"
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def _src_env():
    src = os.path.dirname(os.path.dirname(swiptfog.__file__))
    return {**os.environ, "PYTHONPATH": src}


def test_environment_does_not_change_a_run(capsys, tmp_path):
    """A run's parameters come only from --config: a field-named SWIPTFOG_
    variable, or a misspelled one, leaves frames.csv as it is without
    them, while the same distance given in the file changes it."""
    probe = "import sys, swiptfog.cli; sys.exit(swiptfog.cli.main(sys.argv[1:]))"

    def frames_csv(name, extra_env=None, dist=6.0):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"dist_ap_dev = {dist!r}\n")
        argv = ("simulate", "--config", str(cfg), "--seed", "256", "--frames",
                "20", "--trials", "40", "--out-dir", str(tmp_path / name))
        if extra_env is None:
            assert run(capsys, *argv)[0] == 0
        else:
            subprocess.run([sys.executable, "-c", probe, *argv], check=True,
                           capture_output=True, env={**_src_env(), **extra_env})
        return (tmp_path / name / "frames.csv").read_bytes()

    plain = frames_csv("plain", {})
    assert frames_csv("env", {"SWIPTFOG_DIST_AP_DEV": "15",
                              "SWIPTFOG_DIST_AP_DEVV": "15"}) == plain
    assert frames_csv("file", dist=15.0) != plain


def test_cli_import_leaves_multiprocessing_out():
    """The CLI is single-process; importing it must not pull in
    multiprocessing (and with it socket and selectors)."""
    probe = "import sys, swiptfog.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_src_env()).stdout
    assert out.strip() == "False"


def test_only_main_sets_the_heap_thresholds():
    """Importing the package or the CLI, or calling a library function,
    leaves the C library's allocator alone; the first main call opens it
    once to set the heap thresholds, and builds the parser."""
    probe = """if True:
        import ctypes
        opened, real = [], ctypes.CDLL
        ctypes.CDLL = lambda *a, **k: (opened.append(a), real(*a, **k))[1]
        import swiptfog, swiptfog.cli
        from swiptfog import load_params, monte_carlo
        monte_carlo(load_params(""), n_frames=3, n_trials=2,
                    master_seed=1)
        print(opened, swiptfog.cli._parser is None)
        for _ in range(2):
            swiptfog.cli.main(["allocate", "--gain-down", "1e-6",
                               "--gain-offload", "1e-7"])
        print(opened, swiptfog.cli._parser is None)
    """
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_src_env()).stdout
    lines = out.splitlines()
    assert lines[0] == "[] True"
    assert lines[-1] == "[(None,)] False"


def test_warm_simulate_makes_few_page_faults(capsys, tmp_path):
    """Each 100 x 250 kernel temporary is 200 KB, above glibc's initial
    128 KiB mmap threshold, and the freed heap top was given back after
    every call: the third simulate in one process made about 3.3k minor
    page faults.  With the thresholds main sets, it reuses the heap."""
    resource = pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library exports no mallopt")
    argv = ("simulate", "--seed", "256", "--frames", "100", "--trials", "250",
            "--out-dir", str(tmp_path))
    for _ in range(2):
        assert run(capsys, *argv)[0] == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(list(argv))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert code == 0
    assert faults < 300


def test_main_reuses_its_parser(capsys, tmp_path, monkeypatch):
    """One process runs a sequence of main calls on one parser; each gives
    the stdout, stderr, exit code and CSV bytes it gives in a fresh
    process."""
    calls = [
        ("simulate", "--seed", "3", "--frames", "20", "--trials", "40"),
        ("sweep", "--seed", "1", "--axis", "ops-per-bit", "--values", "abc"),
        ("sweep", "--seed", "5", "--axis", "dist-ap-dev", "--values", "3,9",
         "--frames", "10", "--trials", "5"),
        ("verify", "--seed", "4", "--instances", "20"),
        ("simulate", "--seed", "3", "--frames", "20", "--trials", "40"),
    ]

    def outputs(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}

    probe = "import sys, swiptfog.cli; sys.exit(swiptfog.cli.main(sys.argv[1:]))"
    fresh = []
    for i, argv in enumerate(calls):
        out_dir = tmp_path / str(i)
        proc = subprocess.run([sys.executable, "-c", probe, *argv,
                               "--out-dir", str(out_dir)],
                              capture_output=True, text=True, env=_src_env())
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      outputs(out_dir)))
        shutil.rmtree(out_dir, ignore_errors=True)

    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1) or build())
    for i, (argv, expected) in enumerate(zip(calls, fresh)):
        out_dir = tmp_path / str(i)
        code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert (code, out, err, outputs(out_dir)) == expected, argv
    assert [code for code, *_ in fresh] == [0, 1, 0, 0, 0]
    assert built == [1]


def test_verify_detects_injected_perturbation(params):
    gd, go = np.array(random_gain_pairs(np.random.default_rng(4), 5, params)).T
    local, offload = solve_frames(params, gd, go)
    assert certify(params, gd, go, local, offload, 5).failures == 0
    # claim an offload slot 1 % longer, with its power and cost recomputed
    tau_o = offload.tau_o * 1.01
    p_o = (params.noise_server / go) * _ieee.exp2m1(
        params.bits_per_frame / (params.bw_offload * tau_o))
    harvest = (params.eh_efficiency * (gd + params.noise_dev)
               * (params.frame_duration - offload.tau_d - tau_o))
    claim = replace(offload, tau_o=tau_o, p_o=p_o, e_offload=tau_o * p_o,
                    cost=offload.e_decode + tau_o * p_o - harvest)
    report = certify(params, gd, go, local, claim, 5)
    assert report.failures > 0
    assert [row[-1] for row in report.rows].count("fail") == report.failures
    assert report.worst["offload"] > 1.0


def test_allocate_overflowing_gain_exits_2_with_message(capsys):
    # a finite downlink gain whose SNR overflows is rejected by the kernel
    code, _, err = run(capsys, "allocate",
                       "--gain-down", "1e308", "--gain-offload", "1e-6")
    assert code == 2
    assert "error:" in err and "SNR" in err and "overflows" in err
    # finite gains with a finite SNR whose root argument overflows: the
    # kernel names the gains, before the root solver sees an infinite x
    code, _, err = run(capsys, "allocate",
                       "--gain-down", "1e290", "--gain-offload", "1e100")
    assert code == 2
    assert "error:" in err and "root argument" in err
    assert "eff_gain_down=1e+290" in err and "gain_offload=1e+100" in err


def test_a_configuration_whose_energies_overflow_exits_2(capsys, tmp_path):
    # a feasible frame's cost of inf used to reach the sweep CSV with exit 0
    cfg = tmp_path / "big.cfg"
    for line in ("decode_energy_per_bit = 1e308", "fanout = 1e308"):
        cfg.write_text(line + "\n")
        for argv in (("allocate", "--seed", "1"),
                     ("sweep", "--seed", "0", "--axis", "ops-per-bit",
                      "--values", "1", "--out-dir", str(tmp_path))):
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert (code, out) == (2, ""), (line, argv[0])
            assert err == ("error: a feasible frame's local cost overflows: the "
                           "configuration's energies are too large\n")
    assert not list(tmp_path.glob("*.csv"))


def test_allocate_snr_overflow_exits_2_instead_of_a_nan_cost(capsys):
    # used to print "local: cost=nan J", decide harvest_only and exit 0
    code, out, err = run(capsys, "allocate",
                         "--gain-down", "1e300", "--gain-offload", "0")
    assert code == 2
    assert "SNR" in err and "overflows" in err
    assert out == ""


def test_allocate_rejects_non_finite_or_negative_gain(capsys):
    for flag, other in (("--gain-down", "--gain-offload"),
                        ("--gain-offload", "--gain-down")):
        for value in ("nan", "inf", "-1e-6"):
            code, out, err = run(capsys, "allocate", flag, value, other, "1e-6")
            assert code == 1, (flag, value)
            assert flag in err
            assert "banked" not in out


def test_simulate_zero_frames_or_trials_is_usage_error(capsys, tmp_path):
    for flag in ("--frames", "--trials"):
        code, _, err = run(capsys, "simulate", "--seed", "1", flag, "0",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert "positive integer" in err
    assert not (tmp_path / "frames.csv").exists()


def test_a_size_that_cannot_be_allocated_exits_2_with_one_error_line(
        capsys, tmp_path):
    # petabyte arrays, which numpy refuses at once without touching memory
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n_antennas = 1000000000000000\n")
    for argv in (("allocate", "--seed", "1", "--config", str(cfg)),
                 ("simulate", "--seed", "1", "--frames", "1000000000000000",
                  "--trials", "1", "--out-dir", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "allocate" in err
    assert not (tmp_path / "frames.csv").exists()


@pytest.mark.parametrize("line", [
    "bw_offload = 1e14", "bw_offload = 1e308",
    "bw_downlink = 1e14", "bw_downlink = 1e300",
])
def test_verify_passes_at_large_bandwidths(capsys, tmp_path, line):
    """The optimal slots sit far below one grid cell here, so the oracle's
    refine brackets must reach down to its own floors: the shortest offload
    slot of finite cost, and the local decode slot of the rate floor."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(line + "\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--seed", "1",
                       "--instances", "20", "--jobs", "1",
                       "--out-dir", str(tmp_path))
    assert code == 0, out
    rows = (tmp_path / "verify.csv").read_text().splitlines()[1:]
    assert len(rows) == 20 and all(r.endswith(",pass") for r in rows)


def test_verify_gives_up_when_no_instance_is_feasible(capsys, tmp_path):
    # the rate floor exceeds every sampled link capacity
    cfg = tmp_path / "p.cfg"
    cfg.write_text("rate_min = 1e9\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg), "--seed", "1",
                       "--instances", "5", "--jobs", "1",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "no feasible instance" in err


def _run_quietly(capsys, *argv):
    """run(), which also returns the warnings the run raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    return code, out, err, [str(w.message) for w in caught]


def test_a_feasible_frame_with_an_infinite_offload_power_exits_2(
        capsys, tmp_path):
    # rate_min = 5e-324: the offload slot underflows to 0 and its power is
    # inf; sweep used to write mean_cost_offload = nan with exit 0, and
    # verify to exit 3 with two RuntimeWarnings
    cfg = tmp_path / "p.cfg"
    cfg.write_text("rate_min = 5e-324\n")
    out_dir = tmp_path / "out"
    for argv in (("sweep", "--seed", "1", "--axis", "ops-per-bit", "--values",
                  "1e4", "--frames", "5", "--trials", "2"),
                 ("verify", "--seed", "1", "--instances", "5")):
        code, out, err, caught = _run_quietly(
            capsys, *argv, "--config", str(cfg), "--out-dir", str(out_dir))
        assert (code, out, caught) == (2, "", []), argv[0]
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "p_o" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text,key,link", [
    ("rician_k_db = 3100", "rician_k_db", None),
    ("carrier_freq_mhz = 1e-300", "carrier_freq_mhz", "AP -> device"),
    # the longer AP -> device link stays finite
    ("carrier_freq_mhz = 1e-155\ndist_ap_dev = 1000", "carrier_freq_mhz",
     "device -> server"),
])
def test_a_channel_constant_that_overflows_exits_2_naming_its_key(
        capsys, tmp_path, text, key, link):
    # each used to end in "error: (34, 'Numerical result out of range')"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text + "\n")
    code, out, err, caught = _run_quietly(
        capsys, "simulate", "--seed", "1", "--frames", "3", "--trials", "2",
        "--config", str(cfg), "--out-dir", str(tmp_path))
    assert (code, out, caught) == (2, "", [])
    assert err.startswith(f"error: {key} = ") and err.count("\n") == 1, err
    assert link is None or f"the {link} path-loss scale" in err


def test_verify_passes_where_the_rule_and_costs_tie_to_rounding(
        capsys, tmp_path):
    # rate_min = 1e-30: the rule and the costs disagree on 644 of the 1000
    # pairs, all with equal costs; verify used to exit 3
    cfg = tmp_path / "p.cfg"
    cfg.write_text("rate_min = 1e-30\n")
    code, out, _ = run(capsys, "verify", "--seed", "1", "--instances", "5",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0, out
    assert ("mode rule vs cost comparison: 1000/1000 agree, 644 of them to "
            "within rounding -> ok") in out


def test_simulate_logs_no_disagreement_within_rounding(capsys, caplog,
                                                       tmp_path):
    # rate_min = 1e-10: the rule and the costs disagree within rounding on
    # 58 of 5000 frames, which choose_modes used to log
    cfg = tmp_path / "p.cfg"
    cfg.write_text("rate_min = 1e-10\n")
    with caplog.at_level(logging.DEBUG, logger="swiptfog"):
        code, _, _ = run(capsys, "simulate", "--seed", "1", "--frames", "100",
                         "--trials", "50", "--config", str(cfg),
                         "--out-dir", str(tmp_path))
    assert code == 0
    assert caplog.records == []


def test_counts_below_one_are_usage_errors(capsys, tmp_path):
    out_dir = ("--out-dir", str(tmp_path))
    for argv in (("verify", *out_dir, "--seed", "1", "--jobs", "1", "--instances"),
                 ("allocate", "--seed", "1", "--repeat"),
                 ("simulate", *out_dir, "--seed", "1", "--frames", "2",
                  "--trials", "1", "--jobs")):
        for value in ("0", "-3"):
            code, out, err = run(capsys, *argv, value)
            assert (code, out) == (1, ""), (argv[0], value)
            assert "positive integer" in err
    assert list(tmp_path.iterdir()) == []


def test_argument_errors_exit_1_before_any_work(capsys, tmp_path):
    out_dir = ("--out-dir", str(tmp_path))
    cases = [
        (("allocate", "--seed", "1", "--e-stored", "nan"), "--e-stored"),
        (("allocate", "--seed", "1", "--e-stored", "-1"), "--e-stored"),
        (("allocate", "--seed", "-1"), "--seed"),
        (("simulate", *out_dir, "--seed", "-1", "--frames", "2",
          "--trials", "1", "--jobs", "1"), "--seed"),
        (("sweep", *out_dir, "--seed", "-1", "--axis", "ops-per-bit",
          "--values", "1e3", "--frames", "2", "--trials", "1"), "--seed"),
        (("verify", *out_dir, "--seed", "-1", "--instances", "1",
          "--jobs", "1"), "--seed"),
        (("sweep", *out_dir, "--seed", "1", "--axis", "ops-per-bit",
          "--values", "abc"), "--values"),
        (("sweep", *out_dir, "--seed", "1", "--axis", "ops-per-bit",
          "--values", "1e3,nan"), "--values"),
    ]
    for argv, flag in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"argument {flag}:" in err, argv
    assert list(tmp_path.iterdir()) == []


def test_allocate_stored_energy_defaults_to_unlimited(capsys):
    gains = ("--gain-down", "1e-6", "--gain-offload", "1e-7")
    default = run(capsys, "allocate", *gains)
    assert default[0] == 0 and "decision: local" in default[1]
    assert run(capsys, "allocate", *gains, "--e-stored", "inf") == default
    code, out, _ = run(capsys, "allocate", *gains, "--e-stored", "0")
    assert code == 0 and "cheapest cost exceeds stored energy" in out


# stdout of allocate on random stream 2: the last draw in full, then the
# decision fractions
_ALLOCATE_PINS = {
    ("--seed", "11", "--repeat", "1000"): """\
channel: eff_gain_down=1.03926e-05 gain_offload=2.14436e-06
local  : cost=-2.98365e-06 J  tau_e=0.7995 tau_d=0.000500322 tau_c=0.2 tau_o=0 p_o=0
    decode=2e-06 compute=1.66355e-09 offload=0 harvest=4.98532e-06
offload: cost=-4.13424e-06 J  tau_e=0.993261 tau_d=0.000500322 tau_c=0 tau_o=0.00623899 p_o=9.50107e-06
    decode=2e-06 compute=0 offload=5.92771e-08 harvest=6.19352e-06
decision: offload (i_o=1), cost -4.13424e-06 J
over 1000 draws: local=0.079 offload=0.921 harvest_only=0.000
""",
    # the last draw banks energy (negative cost), so even an empty store runs it
    ("--seed", "11", "--repeat", "1000", "--e-stored", "0"): """\
channel: eff_gain_down=1.03926e-05 gain_offload=2.14436e-06
local  : cost=-2.98365e-06 J  tau_e=0.7995 tau_d=0.000500322 tau_c=0.2 tau_o=0 p_o=0
    decode=2e-06 compute=1.66355e-09 offload=0 harvest=4.98532e-06
offload: cost=-4.13424e-06 J  tau_e=0.993261 tau_d=0.000500322 tau_c=0 tau_o=0.00623899 p_o=9.50107e-06
    decode=2e-06 compute=0 offload=5.92771e-08 harvest=6.19352e-06
decision: offload (i_o=1), cost -4.13424e-06 J
over 1000 draws: local=0.064 offload=0.862 harvest_only=0.074
""",
    # nothing is feasible, and the default budget is unlimited (inf)
    ("--gain-down", "0", "--gain-offload", "0"): """\
channel: eff_gain_down=0 gain_offload=0
local  : infeasible
offload: infeasible
decision: harvest_only (no feasible strategy); banked 6e-12 J
""",
    ("--gain-down", "1e-6", "--gain-offload", "1e-7", "--e-stored", "1e-6",
     "--repeat", "5"): """\
channel: eff_gain_down=1e-06 gain_offload=1e-07
local  : cost=1.52202e-06 J  tau_e=0.799398 tau_d=0.000602059 tau_c=0.2 tau_o=0 p_o=0
    decode=2e-06 compute=1.66355e-09 offload=0 harvest=4.79644e-07
offload: cost=2.17081e-06 J  tau_e=0.933843 tau_d=0.000602059 tau_c=0 tau_o=0.0655551 p_o=1.11527e-05
    decode=2e-06 compute=0 offload=7.31119e-07 harvest=5.60311e-07
decision: harvest_only (cheapest cost exceeds stored energy); banked 6.00006e-07 J
over 5 draws: local=0.000 offload=0.000 harvest_only=1.000
""",
}


def test_allocate_one_explicit_gain_is_a_usage_error(capsys):
    # a lone gain would otherwise be dropped in favour of drawn channels
    for gain in ("--gain-down", "--gain-offload"):
        for seed in ((), ("--seed", "1")):
            code, out, err = run(capsys, "allocate", *seed, gain, "1e-6")
            assert (code, out) == (1, "")
            assert "both --gain-down and --gain-offload" in err


def test_allocate_stdout_is_pinned(capsys):
    for argv, expected in _ALLOCATE_PINS.items():
        assert run(capsys, "allocate", *argv) == (0, expected, ""), argv
