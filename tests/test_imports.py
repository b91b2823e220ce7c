"""The package root imports nothing, and each command module loads only what dpnet's commands use.

Each check runs in a fresh interpreter, so modules this test session has
already loaded cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import dpnet

SRC = str(Path(dpnet.__file__).parents[1])


def loaded_after(statement: str) -> set:
    """The names in sys.modules that are numpy or a dpnet module after a fresh interpreter runs statement."""
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name for name in proc.stdout.split() if name == "numpy" or name == "dpnet" or name.startswith("dpnet.")}


def test_package_root_imports_nothing():
    """`import dpnet` runs only the package docstring: no numpy and no dpnet submodule."""
    assert loaded_after("import dpnet") == {"dpnet"}


def test_cli_loads_exactly_the_modules_its_commands_use():
    modules = ("_atomic", "cli", "config", "data", "dirichlet", "losses", "network", "pipeline", "training")
    assert loaded_after("import dpnet.cli") == {"numpy", "dpnet", *(f"dpnet.{m}" for m in modules)}
