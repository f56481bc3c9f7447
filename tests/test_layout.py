"""The package's layout: every definition and module-level constant in
`src/commgraph`, and every method of a class the package does not export,
has a reader in the program, and the lazy package exports resolve."""

import ast
from pathlib import Path

import pytest

import commgraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commgraph"

# Definitions kept with no caller in the program, each with its reason.
NO_CALLER_NEEDED = {
    "groups.normal_closure": "the acceptance tests import it, and they are not edited",
    "cli._Parser.error": "argparse calls it",
}

# Names the package exported once and no longer does.
DROPPED_EXPORTS = ("generate_elements", "is_nilpotent", "sylow_profile_cyclic_or_quaternion")


def _referenced_names(paths):
    """Every name read, attribute and imported name that the code in `paths`
    mentions; assignments, strings and docstrings do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _assigned_names(node):
    """The names a module-level assignment binds, tuple targets unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        leaf.id for target in targets for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)
    ]


def test_every_src_definition_has_a_caller():
    modules = sorted(SRC.glob("*.py"))
    referenced = _referenced_names(
        modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    )
    uncalled = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                # a constant nothing reads
                uncalled += [
                    f"{path.stem}.{name}" for name in _assigned_names(node)
                    if not (name.startswith("__") or name in referenced or name in commgraph._HOME)
                ]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") or name in referenced or name in commgraph._HOME):
                uncalled.append(f"{path.stem}.{name}")
            if isinstance(node, ast.ClassDef) and name not in commgraph._HOME:
                # a method of an exported class is API; any other needs a caller
                uncalled += [
                    f"{path.stem}.{name}.{method.name}" for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("__") and method.name not in referenced
                ]
    # an entry of the allowlist that gains a caller is dropped from it
    assert sorted(uncalled) == sorted(NO_CALLER_NEEDED)


def test_package_exports_resolve():
    for name, module in commgraph._HOME.items():
        assert getattr(commgraph, name) is getattr(getattr(commgraph, module), name)
    for name in DROPPED_EXPORTS:
        with pytest.raises(AttributeError):
            getattr(commgraph, name)


# Private names one module of the package reaches in another, as
# "reader <- module._name"; the package's other modules keep their private
# names to themselves.
PRIVATE_CROSSINGS = {
    "groups <- walk._compose",
    "diameter8 <- matrices._diag",
    "diameter8 <- matrices._mat_mul",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_names_cross_modules_only_where_pinned():
    crossings = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names `from . import ...` binds to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                else:
                    crossings.update(
                        f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                        if _private(alias.name)
                    )
        crossings.update(
            f"{path.stem} <- {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        )
    assert crossings == PRIVATE_CROSSINGS
