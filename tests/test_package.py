import ast
import contextlib
import ctypes
import glob
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import conftest
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
    """Identifiers used as a Name, an Attribute or an import alias, plus
    a (class, attribute) pair for each ``Name.attr``. A definition's own
    name is none of these, and strings are not parsed."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name):
                    names.add((node.value.id, node.attr))
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def _public_definitions(trees) -> list:
    """(qualified name, identifier) of every public module-level function
    or class of the package and every public method of those classes. A
    static method's identifier is (class, method): a bare name does not
    tell its class, so only a call through the class counts."""
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
                defs.extend((f"{module}.{node.name}.{sub.name}",
                             (node.name, sub.name) if _is_static(sub)
                             else sub.name)
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

    def test_readme_quick_start_runs_as_written(self):
        # the README's Python, its quick start, run as a reader would paste
        # it; the prior its print comment states must be the fit's to two
        # decimals
        block = _readme_python_blocks()
        stated = re.search(r"print\(res\.alpha\)\s*# ~ \[([^\]]*)\]", block)
        assert stated, "quick start no longer states the fitted prior"
        scope = {}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), scope)
        want = [float(v) for v in stated.group(1).split(",")]
        assert np.round(scope["res"].alpha.p, 2).tolist() == want

    def test_every_public_definition_has_a_caller(self):
        # the public API is what the package's own modules, the demos and
        # the benchmark use; a name only tests call is dead weight
        trees = _parsed_callers()
        used = _referenced_names(trees)
        defs = _public_definitions(trees)
        assert len(defs) > 50
        unused = sorted(q for q, name in defs if name not in used)
        assert not unused, f"only tests call: {', '.join(unused)}"


def test_arrays_are_frozen_in_one_place():
    # every value type stores its arrays through data.frozen_field; the one
    # other read-only array is kernels' cached coefficient map
    found = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        funcs = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)]
        for no, line in enumerate(lines, 1):
            if "setflags(" in line or "flags.writeable" in line:
                owner = min((f for f in funcs
                             if f.lineno <= no <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno,
                            default=None)
                found.add((os.path.basename(path)[:-3],
                           owner.name if owner else None))
    assert ("data", "frozen_field") in found
    assert found <= {("data", "frozen_field"),
                     ("kernels", "_coefficient_map")}, sorted(found)


def _is_frozen_dataclass(decorator) -> bool:
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in decorator.keywords))


def test_every_array_field_goes_through_frozen_field():
    # an ndarray field of a frozen dataclass is stored by data.frozen_field
    # (a private, read-only copy); a field assigned any other way would
    # stay writable inside a frozen value
    fields, missing = [], []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    _is_frozen_dataclass(d) for d in cls.decorator_list)):
                continue
            stored = {call.args[1].value for call in ast.walk(cls)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "frozen_field"}
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and "np.ndarray" in ast.unparse(stmt.annotation)):
                    fields.append(f"{cls.name}.{stmt.target.id}")
                    if stmt.target.id not in stored:
                        missing.append(fields[-1])
    assert "LinearFitResult.objective_trace" in fields
    assert len(fields) == 11, fields
    assert not missing, missing


def test_import_starts_no_thread_and_loads_no_pool_module():
    # set-up time is a benchmark metric: importing the package must stay
    # free of executor and process-pool machinery, and of started threads
    code = ("import sys, threading, dcic; "
            "pools = {'concurrent.futures', 'multiprocessing'}; "
            "print(sorted(pools & set(sys.modules)), threading.active_count())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == ["[]", "1"]


def test_suite_runs_blas_on_one_thread():
    # conftest pins OpenBLAS to one thread before numpy loads, as the
    # benchmark does, so the suite forks sweep workers the way a benchmark
    # run does
    if not conftest.BLAS_PINNED_HERE:
        pytest.skip("OPENBLAS_NUM_THREADS was set before the suite started")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    getters = [getattr(ctypes.CDLL(path), sym, None) for path in libs
               for sym in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads")]
    getters = [fn for fn in getters if fn is not None]
    if not getters:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    getters[0].restype = ctypes.c_int
    assert getters[0]() == 1
