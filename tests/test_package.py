import ast
import os

import pytest

import dcic

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(REPO, "demos")


def _names_imported_from_dcic(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dcic":
            names.update(alias.name for alias in node.names)
    return names


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
