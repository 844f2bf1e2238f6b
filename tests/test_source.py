"""Source checks over the package, read with the standard library's ast.

Every name a symlpp module imports is used there or exported, and every
module-level function and class is referenced somewhere outside its own body
(in the package, the tests or the benchmark), so a leftover import or a
definition that lost its last caller fails here.
"""

import ast
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "symlpp")


def _python_files(directory):
    return sorted(os.path.join(directory, name) for name in os.listdir(directory)
                  if name.endswith(".py"))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_type_checking(node):
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
        and node.test.id == "TYPE_CHECKING"


def _imported_names(tree):
    """Names bound by imports at module scope or under `if TYPE_CHECKING:`."""
    statements = []
    for node in tree.body:
        statements.extend(node.body if _is_type_checking(node) else [node])
    names = []
    for node in statements:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _references(nodes):
    """Identifiers that the nodes read: names, attributes, imported names and
    string constants (perfbench looks functions up by name)."""
    found = Counter()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.alias):
                found[node.name.split(".")[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found[node.value] += 1
    return found


def test_every_import_is_used_or_exported():
    unused = []
    for path in _python_files(PACKAGE):
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(os.path.basename(path), name) for name in _imported_names(tree)
                   if name not in used and name not in _exported(tree)]
    assert not unused


def test_every_definition_is_referenced():
    trees = {path: _parse(path)
             for directory in ("src/symlpp", "tests", "perfbench")
             for path in _python_files(os.path.join(ROOT, directory))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _references([tree])
    unreferenced = []
    for path in _python_files(PACKAGE):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a reference from the definition's own body (recursion) does not count
                if everywhere[node.name] <= _references(node.body)[node.name]:
                    unreferenced.append((os.path.basename(path), node.name))
    assert not unreferenced
