"""Every module the tests and the benchmark import is installed by `pip install -e .[test]`.

Each .py file under tests/ and bench/ is parsed, not run, so an import
inside a function or behind a skip is checked too.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).parents[1]


def declared_modules() -> set:
    """The top-level names of pyproject.toml's dependencies and its test extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_tests_and_bench_import_only_declared_modules():
    """An imported top-level module is in the standard library, dpnet, a file beside the importer, or
    declared in pyproject.toml; anything else would fail only where it happens not to be installed."""
    allowed = {*sys.stdlib_module_names, "dpnet", *declared_modules()}
    undeclared = []
    for path in sorted([*(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]):
        siblings = {p.stem for p in path.parent.glob("*.py")}
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {top}"
                for top in (name.split(".")[0] for name in names)
                if top not in allowed and top not in siblings
            ]
    assert not undeclared, "imported, but not declared in pyproject.toml:\n" + "\n".join(undeclared)
