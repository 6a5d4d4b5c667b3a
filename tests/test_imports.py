"""Every name that a module under ``src/`` imports is read in that module.

No linter runs on this repository; this test catches the import that a
change leaves behind after the last use of its name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PINNED = "perfbench/test_perfbench.py checks that its hook patches it"
# imports that nothing reads, by (module, name), and why each stays
UNREAD_ON_PURPOSE = {
    ("safemanip.sim", "mass_matrix"): _PINNED,
    ("safemanip.controller", "mass_matrix"): _PINNED,
}


def _unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    and alias.name == "annotations"):
                continue  # a compiler directive, not a name for the code
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:  # a package's __all__ re-exports its imports
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return {name: line for name, line in bound.items() if name not in read}


def test_every_imported_name_is_read():
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, line in _unread_imports(path).items():
            if (module, name) not in UNREAD_ON_PURPOSE:
                unread.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not unread, "imported but never read:\n" + "\n".join(unread)
