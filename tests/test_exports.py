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
