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


_PRODUCTION = ("config", "states", "walk", "measures", "runners", "cli")
_WALKER_NAMES = {"WalkerState", "compose_walker", "uniform_coin"}


@pytest.mark.parametrize("module", _PRODUCTION)
def test_production_modules_neither_define_nor_import_walker_types(module):
    # the full coin (x) node walker serves the forward-walk oracle only
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    assert names & _WALKER_NAMES == set()


def test_cli_binds_no_runner_name():
    # bench/spans.py wraps any qwsearch.cli.run_* it finds as a one-row runner
    import qwsearch.cli
    assert [name for name in vars(qwsearch.cli) if name.startswith("run_")] == []


def test_layering_check_sees_oracle_imports():
    # the package root re-exports the oracle, so the check has something to find
    assert "evolve_dense" in _oracle_imports("__init__")


def test_readme_variant_table_matches_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Variants", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` *\|", section, flags=re.MULTILINE)
    assert listed == list(VARIANTS)


# numpy 2 names with no numpy 1 spelling; the package supports numpy >= 1.24
_NUMPY2_ONLY = ("bitwise_count", "vecdot", "matvec", "vecmat", "matrix_transpose",
                "permute_dims", "unstack", "concat", "cumulative_sum",
                "cumulative_prod", "isdtype", "astype", "pow", "acos", "asin",
                "atan", "atan2")
_NUMPY2_CALL = re.compile(r"\bnp\.(%s)\b" % "|".join(_NUMPY2_ONLY))


def test_sources_use_no_numpy2_only_names():
    found = [f"{path.name}:{lineno}: np.{m.group(1)}"
             for path in sorted(SRC.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             for m in _NUMPY2_CALL.finditer(line)]
    assert found == []


@pytest.mark.parametrize("line,hit", [
    ("x = np.concat([a, b])", "concat"), ("y = np.atan2(a, b)", "atan2"),
    ("z = np.concatenate([a, b])", None), ("w = a.astype(float)", None),
    ("v = np.power(a, 2)", None), ("u = np.arctan2(a, b)", None),
])
def test_numpy2_guard_sees_only_numpy2_names(line, hit):
    m = _NUMPY2_CALL.search(line)
    assert (m.group(1) if m else None) == hit
