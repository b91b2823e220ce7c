"""README's library example runs as written, and its `dpnet` entry point is the CLI's main."""

import contextlib
import importlib
import io
import math
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the README line ``heading``."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"^```{language}\n(.*?)^```$", after, re.S | re.M).group(1)


def test_library_example_prints_a_mean_near_ln_3():
    """The example trains a detector and prints its mean mutual information on the far ring, which its
    comment says is near ln 3, the largest value for three classes. The suite's filterwarnings turn a
    numpy warning into a failure here too."""
    code = readme_block("## Using the library directly", "python")
    assert "# far inputs score near ln(3)" in code
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert abs(float(printed.getvalue()) - math.log(3)) < 0.05


def test_console_script_is_the_cli_main():
    """pyproject.toml's `dpnet` script, the command README's walkthrough runs, names dpnet.cli:main."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["dpnet"] == "dpnet.cli:main"
    module, name = scripts["dpnet"].split(":")
    main = getattr(importlib.import_module(module), name)
    assert callable(main)
