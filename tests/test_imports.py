"""Every import in the project's own code is used, and every name the
package defines is used by the program.

Scans each `.py` file under `src/` and `tests/` with the
standard library's `ast`: an imported name must be read somewhere in its
module, or be listed in the module's `__all__`. `from __future__` imports
are skipped.

Test-only helpers are kept in `tests/`: every function, class, method and
module-level constant defined under `src/` must be loaded somewhere in
`src/` or in perfbench's own modules (`perfbench/*.py` but its tests), as a
name, an attribute or a string constant, so names listed in perfbench's
`TRACED` or in an `__all__` count. Dunder names are called by Python
itself and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests")
# the program: the package and the benchmark's own modules
PROGRAM = [*sorted((ROOT / "src").rglob("*.py")), *(
    path for path in sorted((ROOT / "perfbench").glob("*.py"))
    if not path.name.startswith("test_")
)]


def unused_imports(source: str) -> list[str]:
    """`line: name` for each name an import in `source` binds that the
    module never loads and its `__all__` does not list."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, nan\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(1) + inf\n"
    )
    assert unused_imports(source) == ["2: os", "4: nan"]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{where}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for where in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def unused_definitions(source: str, used: set[str]) -> list[str]:
    """`line: name` for each function, class, method and module-level
    constant `source` defines that `used` does not name, in line order,
    dunder names left out."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t for t in node.targets if isinstance(t, ast.Name)]
            found += [(t.id, node.lineno) for t in names]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
    return [
        f"{line}: {name}" for name, line in sorted(found, key=lambda f: f[1])
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def loaded_names(source: str) -> set[str]:
    """The names `source` loads, the attributes it reads and its string
    constants."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_definition_checker_counts_names_attributes_and_strings():
    source = (
        "LIMIT = 3\n"
        "SPARE: int = 4\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.rows = LIMIT\n"
        "    def read(self):\n"
        "        return self.rows\n"
        "    def spare(self):\n"
        "        return 0\n"
        "def wrapped():\n"
        "    pass\n"
        "def helper():\n"
        "    return Model().read()\n"
        "NAMES = ('wrapped',)\n"
    )
    unused = unused_definitions(source, loaded_names(source))
    assert unused == ["2: SPARE", "8: spare", "12: helper", "14: NAMES"]


def test_every_definition_is_used_by_the_program():
    used = set().union(*(loaded_names(path.read_text()) for path in PROGRAM))
    found = [
        f"{path.relative_to(ROOT)}:{where}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for where in unused_definitions(path.read_text(), used)
    ]
    assert not found, "used by no program code:\n" + "\n".join(found)
