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


def test_sweep_start_families_small(tmp_path, monkeypatch, capsys):
    script = _load("sweep_start_families")
    out = tmp_path / "families"
    monkeypatch.setattr(sys, "argv", ["sweep_start_families.py", "--n", "4",
                                      "--samples", "3", "--out", str(out)])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"9 rows -> {out / 'sweep_fig4.csv'}",
                     f"summary -> {out / 'sweep_fig4_summary.json'}"]
    ids = [line.split(",")[0] for line in (out / "sweep_fig4.csv").read_text().splitlines()]
    assert ids[1:] == [f"fig4-{v}-{k:02d}" for v in ("skw1", "skw2", "skw3")
                       for k in range(3)]


def test_deviation_scaling_small(monkeypatch, capsys):
    script = _load("deviation_scaling")
    monkeypatch.setattr(sys, "argv", ["deviation_scaling.py", "--min-n", "4",
                                      "--max-n", "5", "--samples", "2"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "samples", "max_dev", "mean_dev", "bound", "wall_s"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["4", "2"], ["5", "2"]]
    for n, _, max_dev, mean_dev, bound, _ in rows:
        assert float(bound) == round(3 / 2 ** (int(n) / 2), 6)
        assert 0.0 <= float(mean_dev) <= float(max_dev)
