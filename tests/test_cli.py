from swiptfog.cli import main


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


def test_sweep_empty_values_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--seed", "1", "--axis", "ops-per-bit",
                       "--values", " ", "--frames", "5", "--trials", "1")
    assert code == 1
    assert "values" in err


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


def test_verify_detects_injected_perturbation(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--seed", "4", "--instances", "5",
                       "--jobs", "1", "--out-dir", str(tmp_path),
                       "--perturb-offload-time", "0.01")
    assert code == 3
    assert "FAILED" in out


def test_allocate_overflowing_gain_exits_2_with_message(capsys):
    # finite gains whose root argument overflows: the root solver cannot
    # certify a root, and the CLI reports that instead of a traceback
    code, _, err = run(capsys, "allocate",
                       "--gain-down", "1e308", "--gain-offload", "1e-6")
    assert code == 2
    assert "error:" in err and "lambert_w0" in err


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


def test_verify_gives_up_when_no_instance_is_feasible(capsys, tmp_path):
    # the rate floor exceeds every sampled link capacity
    cfg = tmp_path / "p.cfg"
    cfg.write_text("rate_min = 1e9\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg), "--seed", "1",
                       "--instances", "5", "--jobs", "1",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "no feasible instance" in err
