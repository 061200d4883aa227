"""Every public name of the package has a user outside the tests.

A name listed in a module's `__all__` must be referenced somewhere in
`src/uotalign/` other than its own definition and `__all__` entry, or
in `bench/`, which pins names such as FEASIBILITY_TOL. A reference is
an AST name read, an attribute or an import; text in docstrings,
comments or string constants does not count. Helpers that only tests
call belong in `tests/`.
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
