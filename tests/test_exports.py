"""Every name a blocktau module exports must resolve, and have a caller.

The second guard fails, naming file:line, for each public top-level function
or class of src/blocktau that no code in src/blocktau refers to: no Name, no
Attribute and no import alias carries it.  A string in __all__ is not a
reference.  A public name reached only from tests is test code shipped in
the package; it gets a production caller or a row of blocktau.checks, or it
goes.

ALLOWED_UNREFERENCED holds the names that may stay without a caller.  Each
must appear in perfbench/tracer.py: the benchmark traces it as a layer of
its own, so the name stays until the tracer stops naming it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blocktau

# __main__ runs the command line on import
MODULES = ["blocktau"] + [
    f"blocktau.{m.name}"
    for m in pkgutil.iter_modules(blocktau.__path__)
    if m.name != "__main__"
]

SRC = Path(blocktau.__file__).parent
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

# only the tests' elimination reference calls it; the tracer traces it
ALLOWED_UNREFERENCED = {"gd_symbol_graded"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _unreferenced(src: Path) -> list[tuple[str, str]]:
    """(file:line, name) of each public top-level def no code in src names."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (f"{path.relative_to(src.parent)}:{node.lineno}", node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and not node.name.startswith("_") and node.name not in refs
    ]


def test_every_public_definition_has_a_caller_in_src():
    found = _unreferenced(SRC)
    orphans = [name for _, name in found if name not in ALLOWED_UNREFERENCED]
    listing = [
        f"{where}: {name}" + (" (allowed)" if name in ALLOWED_UNREFERENCED else "")
        for where, name in found
    ]
    assert not orphans, "public names with no reference in src:\n" + "\n".join(listing)
    stale = ALLOWED_UNREFERENCED - {name for _, name in found}
    assert not stale, f"allowlisted names that now have a caller: {sorted(stale)}"


def test_allowlisted_names_are_traced_layers():
    tracer = TRACER.read_text()
    untraced = sorted(name for name in ALLOWED_UNREFERENCED if name not in tracer)
    assert not untraced, f"allowlisted but not named in perfbench/tracer.py: {untraced}"
