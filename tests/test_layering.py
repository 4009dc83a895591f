"""Module layering: reference routes stay out of the engine, and the docs
list the variants the harness runs."""

import ast
import re
from pathlib import Path

import pytest

from qwsearch.runners import VARIANTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qwsearch"


def _oracle_imports(module):
    """Names a module imports from qwsearch.oracle; '*module*' for the module itself."""
    names = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = ("." * node.level) + (node.module or "")
            if source in (".oracle", "qwsearch.oracle"):
                names += [alias.name for alias in node.names]
            elif source in (".", "qwsearch"):
                names += ["*module*" for alias in node.names if alias.name == "oracle"]
        elif isinstance(node, ast.Import):
            names += ["*module*" for alias in node.names
                      if alias.name == "qwsearch.oracle"]
    return names


@pytest.mark.parametrize("module,allowed", [
    ("states", []), ("walk", []), ("measures", []), ("runners", []),
    ("cli", ["oracle_suite"]),
])
def test_production_modules_keep_out_of_the_oracle(module, allowed):
    assert _oracle_imports(module) == allowed


def test_layering_check_sees_oracle_imports():
    # the package root re-exports the oracle, so the check has something to find
    assert "evolve_dense" in _oracle_imports("__init__")


def test_readme_variant_table_matches_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Variants", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` *\|", section, flags=re.MULTILINE)
    assert listed == list(VARIANTS)
