"""Every module-level import in ``src/adamlab`` is used in its module."""
import ast
from pathlib import Path

import adamlab

#: the imports that only ``perfbench/tracer.py`` needs, since it patches the name in that module
TRACER_IMPORTS = {("cli", "run_experiment"), ("quadbench", "direction"), ("filters", "direction")}


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
    for path in sorted(Path(adamlab.__file__).parent.glob("*.py")):
        unused |= unused_imports(path)
    assert set(unused) == TRACER_IMPORTS
    assert all("perfbench/tracer.py" in line for line in unused.values())
