"""Every import in the project's own code is used.

Scans each `.py` file under `src/` and `tests/` with the
standard library's `ast`: an imported name must be read somewhere in its
module, or be listed in the module's `__all__`. `from __future__` imports
are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests")


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
