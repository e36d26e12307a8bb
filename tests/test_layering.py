"""Which private names one envgain module reaches for in another.

Each entry is (module, other module, name). A new entry means a module
leans on another's internals: make the name public where it belongs, or
add it here on purpose.
"""

import ast
from pathlib import Path

import envgain

PACKAGE = Path(envgain.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

ALLOWED = {
    ("baseline", "mixing", "_joined"),
    ("baseline", "mixing", "_windows"),
    ("baseline", "pipeline", "_forward_side_by_side"),
    ("baseline", "pipeline", "_train"),
}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reaches(module: str) -> set:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bound = set()  # envgain modules this one imports by name
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
                elif node.module in MODULES and is_private(alias.name):
                    found.add((module, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and is_private(node.attr)):
            found.add((module, node.value.id, node.attr))
    return found


def test_cross_module_private_names_are_the_listed_ones():
    found = set().union(*(private_reaches(module) for module in MODULES))
    assert found == ALLOWED
