import ast
import os

import pytest

import dcic

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(REPO, "demos")
PACKAGE = os.path.dirname(os.path.abspath(dcic.__file__))
# where the program's callers live; tests do not count as callers
CALLER_DIRS = (PACKAGE, DEMOS, os.path.join(REPO, "perfbench"))


def _names_imported_from_dcic(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dcic":
            names.update(alias.name for alias in node.names)
    return names


def _parsed_callers() -> dict:
    """path -> AST of every caller file; the package's ``__init__.py`` only
    re-exports, so its imports are not uses."""
    trees = {}
    for top in CALLER_DIRS:
        for root, _, files in os.walk(top):
            for name in sorted(files):
                path = os.path.join(root, name)
                if name.endswith(".py") and path != dcic.__file__:
                    with open(path) as fh:
                        trees[path] = ast.parse(fh.read())
    return trees


def _referenced_names(trees) -> set:
    """Identifiers used as a Name, an Attribute or an import alias. A
    definition's own name is none of these, and strings are not parsed."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _public_definitions(trees) -> list:
    """(qualified name, identifier) of every public module-level function
    or class of the package and every public method of those classes."""
    defs = []
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        module = os.path.basename(path)[:-3]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))
    return defs


def _readme_python_blocks() -> str:
    with open(os.path.join(REPO, "README.md")) as fh:
        text = fh.read()
    return "\n".join(part.split("```", 1)[0]
                     for part in text.split("```python")[1:])


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert len(set(dcic.__all__)) == len(dcic.__all__)
        for name in dcic.__all__:
            assert getattr(dcic, name, None) is not None, name

    @pytest.mark.parametrize("demo", sorted(
        f for f in os.listdir(DEMOS) if f.endswith(".py")))
    def test_demo_imports_are_exported(self, demo):
        with open(os.path.join(DEMOS, demo)) as fh:
            used = _names_imported_from_dcic(fh.read())
        assert used, f"{demo} imports nothing from dcic"
        assert used <= set(dcic.__all__), sorted(used - set(dcic.__all__))

    def test_readme_quick_start_imports_are_exported(self):
        used = _names_imported_from_dcic(_readme_python_blocks())
        assert used, "README quick start imports nothing from dcic"
        assert used <= set(dcic.__all__), sorted(used - set(dcic.__all__))

    def test_every_public_definition_has_a_caller(self):
        # the public API is what the package's own modules, the demos and
        # the benchmark use; a name only tests call is dead weight
        trees = _parsed_callers()
        used = _referenced_names(trees)
        defs = _public_definitions(trees)
        assert len(defs) > 50
        unused = sorted(q for q, name in defs if name not in used)
        assert not unused, f"only tests call: {', '.join(unused)}"
