"""Every public name of the package has a user outside the tests, and
every import is used.

A name listed in a module's `__all__` must be referenced somewhere in
`src/uotalign/` other than its own definition and `__all__` entry, or
in `bench/`, which pins names such as FEASIBILITY_TOL. A reference is
an AST name read, an attribute or an import; text in docstrings,
comments or string constants does not count. Helpers that only tests
call belong in `tests/`.

A name that a module of `src/uotalign/` or `tests/` imports must be
read in that module or listed in its `__all__`. An import statement
whose first line carries `noqa: F401` is exempt: it binds a name on
purpose, for code that looks it up on the module.

Only `prompts.py` branches on a prompt path's tag ("cs" or "ds"): how
each path is built and backpropagated is known there alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uotalign"


def _public_names(tree) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_user_outside_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(trees[path]):
            if not any(name in found for found in refs.values()):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"public names with no user in src/ or bench/: {unused}"


def _unused_imports(path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_public_names(tree))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda item: item[1])
            if name not in read]


def test_every_import_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == [], f"imported names never used: {unused}"


def test_only_prompts_compares_path_tags():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "prompts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(operand, ast.Constant) and operand.value in ("cs", "ds")
                    for operand in (node.left, *node.comparators)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"path-tag comparisons outside prompts.py: {found}"
