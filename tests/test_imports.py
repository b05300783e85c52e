"""Every module-level import in ``src/adamlab`` is used in its module, and every module-level definition is reached."""
import ast
from pathlib import Path

import adamlab
from test_benchmark_names import _load

PACKAGE = Path(adamlab.__file__).parent
TESTS = Path(__file__).resolve().parent

#: the imports that only ``perfbench/tracer.py`` needs, since it patches the name in that module
TRACER_IMPORTS = {("cli", "run_experiment"), ("quadbench", "direction"), ("filters", "direction")}

#: module-level definitions that nothing reaches yet: ``serialize_config`` is kept for the planned
#: ``manifest.json``, which will write the resolved config with it
UNREACHED = {("cli", "serialize_config")}


def unused_imports(path: Path) -> dict[tuple[str, str], str]:
    """``(module, name)`` of each module-level import that ``path`` never reads, with its source line."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused[path.stem, name] = lines[alias.lineno - 1]
    return unused


def test_every_import_is_used_but_the_tracer_ones():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused |= unused_imports(path)
    assert set(unused) == TRACER_IMPORTS
    assert all("perfbench/tracer.py" in line for line in unused.values())


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` reads, as a bare name or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_definition_is_reached():
    """Each module-level function or class is read in the package, in the acceptance tests, or patched by the tracer.

    Code that nothing reaches is deleted, so a name that only its own tests
    read fails here. A ``PATCHES`` entry reaches its attribute and every part
    of its owner's dotted path (``adamlab.core.EmaBuffer``).
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reached = set().union(*map(referenced_names, trees.values()))
    reached |= referenced_names(ast.parse((TESTS / "test_acceptance.py").read_text()))
    for owner, attr, *_ in _load("tracer").PATCHES:
        reached |= {*owner.split("."), attr}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {(module, name) for module, name in defined if name not in reached} == UNREACHED
