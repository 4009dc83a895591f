import importlib.util
import sys
from pathlib import Path

import qwsearch

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_points_past_ten_directions(monkeypatch, capsys):
    script = _load("run_reference_points")
    monkeypatch.setattr(sys, "argv", ["run_reference_points.py", "--n", "11"])
    assert script.main() == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split()[:3] == ["plain", "11", "2048"]


def test_public_names_unique_and_resolvable():
    assert len(qwsearch.__all__) == len(set(qwsearch.__all__))
    for name in qwsearch.__all__:
        assert hasattr(qwsearch, name), name
