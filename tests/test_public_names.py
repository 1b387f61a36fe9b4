"""No public name under ``src/`` is there only for the tests.

Every public module-level function or class of ``src/qtopos``, and every
public method or property of a public class, must be referenced somewhere
outside its own definition: in a ``src/`` module, in
``qtopos.__all__``, or in ``demos/``, ``perfbench/``, ``tools/`` or the
acceptance gate ``tests/test_acceptance.py``.  A function or class is
referenced by a name, an attribute, an imported name or a string equal to
its name, since ``perfbench/tracer.py`` wraps functions by their attribute
names.  A method or property is referenced only by an attribute or a
string: a bare name of the same spelling is some other variable.  A
construct that only the other tests call belongs in those tests.
"""
from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qtopos"
USERS = ("demos", "perfbench", "tools")


def _references(tree: ast.AST, skip: ast.AST | None = None) -> tuple[set, set]:
    """Every identifier ``tree`` mentions, leaving out the subtree ``skip``:
    the bare and imported names, and the attributes and strings."""
    names: set[str] = set()
    attributes: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function or class
    and of each public method or property of a public class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def unreferenced_public_names() -> list[str]:
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = [_references(_parse(path)) for path in [
        ROOT / "tests" / "test_acceptance.py",
        *(p for d in USERS for p in sorted((ROOT / d).rglob("*.py")))]]
    unused = []
    for path, tree in modules.items():
        seen = outside + [_references(other_tree)
                          for other, other_tree in modules.items() if other != path]
        for qualified, node in _public_definitions(tree):
            method = "." in qualified
            if not any(node.name in attributes or (not method and node.name in names)
                       for names, attributes in [*seen, _references(tree, skip=node)]):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unreferenced_public_names()
    assert not unused, "called only from tests: " + ", ".join(unused)


def test_methods_and_properties_of_public_classes_are_checked():
    names = {name for name, _ in _public_definitions(_parse(SRC / "kernel.py"))}
    assert {"FinPoset.down", "Presheaf.restrict", "Subobject.parts",
            "NatTransform.components", "LowerSet.sorted_members",
            "LowerSet.is_full"} <= names
    assert not any(name.split(".")[-1].startswith("_") for name in names)


def test_cli_uses_only_public_names_of_the_package():
    private = []
    for node in ast.walk(_parse(SRC / "cli.py")):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("kernel", "props", "quantum")):
            private.append(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.level or (node.module or "").startswith("qtopos"))):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_")]
    assert not private, "cli.py reaches past the public API: " + ", ".join(private)
