"""tools/bench_pairs.py: the claim rule of compare, the size measure and the
stream version;
tools/peak_lines.py: where a traced peak is charged."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten runs of median 10.45 and interquartile range 0.45 (10.225 to 10.675)
PARENT = [10.0 + 0.1 * i for i in range(10)]


def _compare(better, parent, change, bound=0.25):
    """compare's verdict on one metric, from its runs on each side."""
    def runs(values):
        return [{"metrics": {"m": {"value": v}}} for v in values]
    metric = {"name": "m", "better": better, "bound": bound}
    return bench_pairs.compare(runs(parent), runs(change), len(parent),
                               [metric])["m"]


def test_gain_shown_on_a_lower_better_metric():
    out = _compare("lower", PARENT, [p - 1.0 for p in PARENT])
    assert (out["change_wins"], out["gain_shown"]) == ("10/10", True)
    # every pair won, but by less than the parent's interquartile range
    out = _compare("lower", PARENT, [p - 0.4 for p in PARENT])
    assert (out["change_wins"], out["gain_shown"]) == ("10/10", False)
    # nine pairs of ten are enough
    out = _compare("lower", PARENT, [p - 1.0 for p in PARENT[:9]] + [11.0])
    assert (out["change_wins"], out["gain_shown"]) == ("9/10", True)


def test_gain_shown_on_a_higher_better_metric():
    out = _compare("higher", PARENT, [p + 1.0 for p in PARENT])
    assert (out["change_wins"], out["gain_shown"]) == ("10/10", True)
    out = _compare("higher", PARENT, [p + 1.0 for p in PARENT[:8]] + [9.0, 9.0])
    assert (out["change_wins"], out["gain_shown"]) == ("8/10", False)


def test_ties_count_for_neither_side():
    for better in ("lower", "higher"):
        out = _compare(better, PARENT, PARENT)
        assert out["change_wins"] == "0/10" and not out["gain_shown"]
        assert out["change_worse_by_frac"] == 0.0 and out["within_bound"]
    # nine wins and a tie: the tie is no win, and no loss either
    out = _compare("lower", PARENT, [p - 1.0 for p in PARENT[:9]] + PARENT[9:])
    assert (out["change_wins"], out["gain_shown"]) == ("9/10", True)


def test_a_regression_does_not_read_as_a_gain():
    for better, step in (("lower", 1.0), ("higher", -1.0)):
        out = _compare(better, PARENT, [p + step for p in PARENT])
        assert (out["change_wins"], out["gain_shown"]) == ("0/10", False)
        assert out["change_worse_by_frac"] == 1.0 / 10.45


def test_within_bound_holds_at_the_bound_and_not_above():
    parent = [10.0] * 10
    for better, at, above in (("lower", 12.5, 12.50001),
                              ("higher", 7.5, 7.49999)):
        out = _compare(better, parent, [at] * 10)
        assert (out["change_worse_by_frac"], out["within_bound"]) == (0.25, True)
        assert not _compare(better, parent, [above] * 10)["within_bound"]


def test_src_module_lines_counts_each_python_file_under_src(tmp_path):
    for name, text in (("pkg/a.py", "x = 1\ny = 2\n\n"), ("pkg/sub/b.py", "z\n"),
                       ("pkg/data.txt", "not python\n"), ("pkg/empty.py", "")):
        path = tmp_path / "src" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (tmp_path / "top.py").write_text("outside src\n")
    lines = bench_pairs.src_module_lines(tmp_path)
    assert lines == {"pkg/a.py": 3, "pkg/empty.py": 0, "pkg/sub/b.py": 1}
    assert list(lines) == sorted(lines)


def test_stream_version_is_read_from_the_tree_without_importing_it(tmp_path):
    assert bench_pairs.stream_version(tmp_path) is None  # no sim.py
    sim = tmp_path / "src" / "swiptfog" / "sim.py"
    sim.parent.mkdir(parents=True)
    sim.write_text("raise SystemExit('imported')\n# STREAM_VERSION = 9\n")
    assert bench_pairs.stream_version(tmp_path) is None
    sim.write_text("raise SystemExit('imported')\nSTREAM_VERSION = 3\n"
                   "TRIAL_CHUNK = 32\n")
    assert bench_pairs.stream_version(tmp_path) == 3
    from swiptfog import sim as this_sim
    assert bench_pairs.stream_version(bench_pairs.ROOT) == this_sim.STREAM_VERSION


_PEAK_SPEC = importlib.util.spec_from_file_location(
    "peak_lines", Path(__file__).resolve().parents[1] / "tools" / "peak_lines.py")
peak_lines = importlib.util.module_from_spec(_PEAK_SPEC)
_PEAK_SPEC.loader.exec_module(peak_lines)


def test_peak_lines_charges_lines_of_the_package(tmp_path):
    import swiptfog.cli
    package_dir = Path(swiptfog.cli.__file__).parent
    code, overall, peaks = peak_lines.trace_peaks(
        lambda: swiptfog.cli.main(["simulate", "--seed", "1", "--frames", "5",
                                   "--trials", "2", "--out-dir", str(tmp_path)]),
        package_dir)
    assert code == 0 and overall > 0
    assert overall == max(peak for peak, _ in peaks.values())
    top = sorted(peaks.items(), key=lambda item: -item[1][0])[:3]
    assert all(Path(path).parent == package_dir and line > 0
               for (path, line), _ in top)
