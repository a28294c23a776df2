"""Every exported name resolves: a name left in an __all__ after its
definition is removed or renamed fails here, not in a user's import."""

import importlib
import pkgutil

import swiptfog


def test_every_exported_name_resolves():
    modules = [swiptfog] + [importlib.import_module(f"swiptfog.{info.name}")
                            for info in pkgutil.iter_modules(swiptfog.__path__)]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
