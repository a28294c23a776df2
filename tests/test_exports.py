"""Every exported name resolves: a name left in an __all__ after its
definition is removed or renamed fails here, not in a user's import."""

import importlib
import os
import pkgutil
import subprocess
import sys

import swiptfog


def test_every_exported_name_resolves():
    modules = [swiptfog] + [importlib.import_module(f"swiptfog.{info.name}")
                            for info in pkgutil.iter_modules(swiptfog.__path__)]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_the_root_exports_only_the_run_entry_points():
    """The root re-exports the six names of the storage runs and sweeps;
    every other name comes from its module, so importing the root loads
    neither the brute-force oracle nor the command line."""
    probe = ("import sys, swiptfog; "
             "print([m for m in ('swiptfog.bruteforce', 'swiptfog.cli') "
             "if m in sys.modules]); print(sorted(swiptfog.__all__))")
    src = os.path.dirname(os.path.dirname(swiptfog.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [
        "[]",
        str(["SweepAxis", "SystemParams", "load_params", "monte_carlo",
             "run_trace", "sweep"]),
    ]


def test_only_verify_loads_the_oracle(tmp_path):
    """The command line imports the brute-force oracle inside certify: a
    simulate call leaves it unloaded, and a verify call loads it."""
    probe = (
        "import contextlib, io, sys, swiptfog.cli\n"
        "loaded = []\n"
        "for argv in (['simulate', '--frames', '3', '--trials', '2'],\n"
        "             ['verify', '--instances', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = swiptfog.cli.main(\n"
        "            argv + ['--seed', '1', '--out-dir', sys.argv[1]])\n"
        "    loaded.append((argv[0], code, 'swiptfog.bruteforce' in sys.modules))\n"
        "print(loaded)")
    src = os.path.dirname(os.path.dirname(swiptfog.__file__))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [
        str([("simulate", 0, False), ("verify", 0, True)])]
