"""The traced benchmark run (perfbench/spans.py) wraps swiptfog functions at
fixed (module, attribute) names; one name that no longer resolves fails
every traced run.  This reads the table without installing any wrapper.

The table is also the only reason a module may import a name it neither
uses nor exports: every other such import is dead code."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "swiptfog"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_exported_or_a_span_target():
    """An imported name is read in its module or listed in its __all__.
    The one exception is a name the span table pairs with that module, and
    it sits on a ``# noqa: F401`` line."""
    pinned = {}
    for module_name, attr, _, _ in _targets():
        pinned.setdefault(module_name, set()).add(attr)
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    unused = []
    for path in paths:
        module = "swiptfog" if path.stem == "__init__" else f"swiptfog.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        kept = _exported(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name in kept:
                    continue
                if (name in pinned.get(module, ())
                        and "# noqa: F401" in lines[alias.lineno - 1]):
                    continue
                unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, unused
