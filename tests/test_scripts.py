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


def test_compare_outputs_finds_no_difference_on_one_tree():
    script = _load("compare_outputs")
    root = SCRIPTS.parent
    commands = [c for c in script.COMMANDS if c[0] in ("skw", "measures haar")]
    lines, floats, worst, mismatches = script.compare(root, root, commands)
    assert (floats, worst, mismatches) == (0, 0.0, 0)
    assert len(lines) == 2 and all(line.endswith("same") for line in lines)
    # what it would count: a float cell's gap, an integer cell as a mismatch
    assert script._float_gap("0.5", "0.25") == 0.25
    assert script._float_gap("18", "19") is None


def test_compare_outputs_reads_the_measures_json_line_by_field():
    script = _load("compare_outputs")
    text = ("E_g = 0.5 (best product overlap 0.75, converged; 32 restarts, at most 53 sweeps)\n"
            '{"E_g": 0.5, "E_g_overlap": 0.75, "converged": true, "restarts_used": 32, '
            '"sweeps": 53}\n')
    plain, fields = script._split_stdout(text)
    assert plain == "E_g = # (best product overlap #, converged; # restarts, at most # sweeps)"
    assert fields[("stdout", "E_g_overlap")] == 0.75 and fields[("stdout", "sweeps")] == 53
    # a number the JSON line does not hold stays in the text
    assert script._split_stdout("state: haar:n=8\n")[0] == "state: haar:n=8"

