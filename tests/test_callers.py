"""Every public name and every private helper in the package has a
caller in the package.

A public function, class, method or module constant, or a private
module-level function, class or constant, of src/cfmcheck is referenced
when a name or an attribute of that spelling occurs in the package's
code outside its own definition.  Imports are not references, so the
re-exports in __init__ do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfmcheck"

# bench/tracing.py's TRACED names these, so they stay until the
# benchmark stops tracing them
TRACED_ONLY = {"equiv.terms_equiv", "syntax.restrict_syntactic"}


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, spelling, defining node) of each public function,
    class, method and module constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield f"{module}.{target.id}", target.id, node


def private_definitions(module: str, tree: ast.Module):
    """(qualified name, spelling, defining node) of each private
    module-level function and class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield f"{module}.{node.name}", node.name, node


def private_constants(module: str, tree: ast.Module):
    """(qualified name, spelling, defining node) of each private
    module-level constant."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.startswith("_")
                        and not target.id.startswith("__")):
                    yield f"{module}.{target.id}", target.id, node


def references(tree: ast.Module):
    """(spelling, node) of each name read and attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def uncalled_names(definitions) -> set:
    """The qualified names that definitions(module, tree) yields and no
    code outside their own definition references."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {}  # spelling -> the nodes that reference it
    for tree in trees.values():
        for spelling, node in references(tree):
            used.setdefault(spelling, []).append(node)
    uncalled = set()
    for module, tree in trees.items():
        for name, spelling, definition in definitions(module, tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in used.get(spelling, ())):
                uncalled.add(name)
    return uncalled


def test_every_public_name_has_a_caller():
    assert uncalled_names(public_definitions) == TRACED_ONLY


def test_every_private_helper_has_a_caller():
    # a helper that a deletion strands fails here, not only in review
    assert uncalled_names(private_definitions) == set()


def test_every_private_constant_has_a_reference():
    # a table or pattern that a deletion strands fails here too
    assert uncalled_names(private_constants) == set()
