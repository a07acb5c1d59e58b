"""The package's modules reach each other through public names only."""

import ast
from pathlib import Path

import zids

PACKAGE = Path(zids.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """The _-prefixed names that source imports from a zids module. A
    private module (`from . import _blas`) and a dunder are not such names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "zids":
            continue  # another package
        from_package = node.module in (None, "zids")
        for alias in node.names:
            name = alias.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if from_package and (PACKAGE / f"{name}.py").is_file():
                continue
            found.append(f"line {node.lineno}: {name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
