"""Every function, method and property defined under ``src/`` is read
somewhere in ``src/``.

A definition that only tests call belongs in ``tests/``.  Names are matched
by their last part.  ``src/`` imports its functions by name (``from .model
import point_jacobian``), so a module-level function is read only by a bare
name.  A method or property is read by an attribute: ``x.foo`` anywhere in
``src/`` reads every method ``foo``, since the type of ``x`` is not known
without running the code, but no module-level function ``foo``.  Dunder
methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# definitions that nothing in src/ reads, by (module, qualified name), and why
# each stays
UNREAD_ON_PURPOSE = {
    ("safemanip.cli", "_Parser.error"): "argparse calls it on a bad argument",
    ("safemanip.planner.qp", "make_feasible"):
        "perfbench's HOOKS resolve it on every run; its deletion waits for "
        "the benchmark change that retires it",
    ("safemanip.planner.transcription", "MpcProblem.n_vars"):
        "perfbench's _problem_tag reads it for planner.n_vars",
    ("safemanip.robots", "load_robot"): "the public loader of bundled robots",
}


def _is_function(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _scan():
    """((module, qualified name, last part, is a method) of every
    definition, every name read as a variable, every name read as an
    attribute)."""
    defined, names, attributes = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in tree.body:
            if _is_function(node):
                defined.append((module, node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}", item.name, True)
                            for item in node.body if _is_function(item)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return defined, names, attributes


def test_every_definition_is_read():
    defined, names, attributes = _scan()
    unread = {(module, qual) for module, qual, name, method in defined
              if name not in names
              and not (method and name in attributes)}
    extra = sorted(unread - set(UNREAD_ON_PURPOSE))
    stale = sorted(set(UNREAD_ON_PURPOSE) - unread)
    assert not extra, "defined under src/ but never read there: " + ", ".join(
        f"{module}.{qual}" for module, qual in extra)
    assert not stale, "read in src/ now, so drop from UNREAD_ON_PURPOSE: " + (
        ", ".join(f"{module}.{qual}" for module, qual in stale))
