import argparse
import csv
import json
import math
import os
import re

import numpy as np
import pytest

from qwsearch import cli, measures, states
from qwsearch.cli import CSV_COLUMNS, main, parse_config


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


BASE = """
experiment.id = demo
run.variant = skw1
run.n = 8
state.family = interpolated
state.t = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1
output.csv = rows.csv
output.summary = summary.json
"""


def test_run_interpolated_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWSEARCH_OUT", raising=False)
    cfg = _write(tmp_path / "cfg.txt", BASE)
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == ["11 rows -> rows.csv",
                                                    "summary -> summary.json"]
    rows = _read_rows(tmp_path / "rows.csv")
    assert len(rows) == 11
    assert list(rows[0]) == list(CSV_COLUMNS)
    f_cs = [float(r["f_c"]) for r in rows]
    p_avgs = [float(r["p_avg"]) for r in rows]
    assert f_cs == sorted(f_cs)
    assert p_avgs == sorted(p_avgs)  # richer start state, better search
    for r in rows:
        assert abs(float(r["p_pred"]) - float(r["f_c"]) / 2) < 1e-15
        assert float(r["abs_dev"]) <= 3 / math.sqrt(256)
        assert r["tau"] == "18"
        assert r["E_g"] == "" and r["leaked_weight"] == ""
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"] == 11
    assert summary["aggregates"]["within_bound"] is True


def test_run_is_reproducible_modulo_wall_ms(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = repro
run.variant = skw1
run.n = 5
run.seeds = 1, 2, 3
run.measure_entanglement = true
state.family = haar_random
output.csv = {csv}
output.summary = {summary}
"""
    for tag in ("a", "b"):
        cfg = _write(tmp_path / f"cfg_{tag}.txt",
                     text.format(csv=f"{tag}.csv", summary=f"{tag}.json"))
        assert main(["run", cfg]) == 0

    def strip_wall(path):
        lines = (tmp_path / path).read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert strip_wall("a.csv") == strip_wall("b.csv")
    rows = _read_rows(tmp_path / "a.csv")
    assert [r["seed"] for r in rows] == ["1", "2", "3"]
    assert all(r["E_g"] != "" for r in rows)


def test_run_appends_to_existing_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = app
run.variant = skw3
run.n = 4
state.family = basis
state.i = 3
output.csv = rows.csv
output.summary = summary.json
"""
    cfg = _write(tmp_path / "cfg.txt", text)
    assert main(["run", cfg]) == 0
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert len(lines) == 3  # one header, two data rows
    assert lines[0].startswith("experiment_id,")


def test_run_explicit_tau_and_gamma_metric(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = tau7
run.variant = skw1
run.n = 4
run.tau = 7
run.metric = gamma
state.family = uniform
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 0
    rows = _read_rows(tmp_path / "rows.csv")
    assert rows[0]["tau"] == "7"


def test_run_mixed_ensemble(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = mix
run.variant = skw1
run.n = 4
state.family = mixed_ensemble
state.members = 2
state.member1.weight = 0.25
state.member1.spec = basis:n=4,i=0
state.member2.weight = 0.75
state.member2.spec = uniform:n=4
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 0
    row = _read_rows(tmp_path / "rows.csv")[0]
    expected_f_c = 0.25 / 16 + 0.75
    assert abs(float(row["f_c"]) - expected_f_c) < 1e-14
    assert row["C_f"] == ""


def test_run_explicit_amplitudes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = amps
run.variant = skw3
run.n = 2
state.family = explicit_amplitudes
state.amps = 0.6, 0, 0, 0.8j
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 0
    row = _read_rows(tmp_path / "rows.csv")[0]
    # largest component 0.64, so the best-frame miss is sqrt(0.36)
    assert abs(float(row["C_f"]) - 0.6) < 1e-12
    assert abs(float(row["p_pred"]) - 0.32) < 1e-12


@pytest.mark.parametrize("text,fragment", [
    ("experiment.id demo\nrun.variant = skw\nrun.n = 4", "line 1"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 4\nbogus.key = 1",
     "unknown key"),
    ("experiment.id = demo\nexperiment.id = demo2\nrun.variant = skw\nrun.n = 4",
     "duplicate"),
    ("run.variant = skw\nrun.n = 4", "experiment.id"),
    ("experiment.id = demo\nrun.variant = skw9\nrun.n = 4", "run.variant"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = four", "integer"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = interpolated\nstate.t = 1.5", "state.t"),
    ("experiment.id = demo\nrun.variant = skw2\nrun.n = 4\n"
     "state.family = mixed_ensemble\nstate.members = 1\n"
     "state.member1.weight = 1\nstate.member1.spec = uniform:n=4",
     "pure state"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = interpolated\nstate.t = 0.2, 0.4\nstate.alpha = 0.1, 0.2",
     "state family 'interpolated' does not take alpha"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "numerics.conservation_tol = 1e-10", "unknown key 'numerics."),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = basis\nstate.i = 2\nstate.t = 0.1, 0.2\nstate.alpha = 0.3",
     "state family 'basis' does not take t"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = mixed_ensemble\nstate.members = 1\nstate.t = 0.5\n"
     "state.member1.weight = 1\nstate.member1.spec = uniform:n=4",
     "state family 'mixed_ensemble' does not take t"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = mixed_ensemble\nstate.members = 1\n"
     "state.member1.weight = 1\nstate.member1.spec = ghz:n=4,beta=2",
     "state family 'ghz' does not take beta"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 6\n"
     "state.family = mixed_ensemble\nstate.members = 1\n"
     "state.member1.weight = 1\nstate.member1.spec = uniform:n=3",
     "state.member1.spec has n=3 but run.n = 6"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\nrun.threads = 2",
     "unknown key"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 3\n"
     "state.family = interpolated\nstate.t = 0.2, 0.4",
     "run.variant = skw builds its own start state"),
    ("experiment.id = demo\nrun.variant = oskw\nrun.n = 3\n"
     "state.family = uniform", "run.variant = oskw builds its own start state"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 3\n"
     "state.members = 1\nstate.member1.weight = 1\n"
     "state.member1.spec = uniform:n=3", "builds its own start state"),
    ("experiment.id = demo\nrun.variant = skw3\nrun.n = 3\n"
     "state.family = basis\nrun.measure_entanglement = true",
     "run.measure_entanglement applies to skw1, oskw1 only"),
    ("experiment.id = demo\nrun.variant = skw3\nrun.n = 3\n"
     "state.family = basis\nrun.restarts = 5",
     "run.restarts applies to skw1, skw2, oskw1 only"),
    ("experiment.id = demo\nrun.variant = oskw1\nrun.n = 3\n"
     "run.denominator = vertex-count", "unknown key 'run.denominator'"),
    ("experiment.id = demo\nrun.variant = skw2\nrun.n = 3\n"
     "run.measure_entanglement = false", "not run.variant = skw2"),
    ("experiment.id = demo\nrun.variant = oskw\nrun.n = 3\nrun.restarts = 4",
     "not run.variant = oskw"),
    ("experiment.id = demo\nrun.variant = oskw1\nrun.n = 2",
     "run.variant = oskw1: optimized walk needs at least 3 directions"),
    ("experiment.id = demo\nrun.variant = oskw1\nrun.n = 4\nstate.family = w",
     "run.variant = oskw1: state has no even-parity weight"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 21",
     "run.n must be <= 20 (walk size guard), got 21"),
    ("experiment.id = demo\nrun.variant = skw2\nrun.n = 21\n"
     "state.family = haar_random", "run.n must be <= 20"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = interpolated\nstate.t =", "state.t: expected a number, got ''"),
    ("experiment.id = demo\nrun.variant = skw2\nrun.n = 4\n"
     "state.family = ghz\nstate.alpha = ,", "state.alpha: expected a number, got ','"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 4\n"
     "run.tau_rule = optimal", "unknown key 'run.tau_rule'"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 4\n"
     "run.tau_rule = explicit\nrun.tau = 3", "unknown key 'run.tau_rule'"),
    ("experiment.id = demo\nrun.variant = skw\nrun.n = 4\nrun.seeds = 0, -1",
     "run.seeds must be >= 0, got -1"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 2\n"
     "state.family = explicit_amplitudes\nstate.amps = nan, 0, 0, 1",
     "explicit amplitudes must be finite"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 2\n"
     "state.family = mixed_ensemble\nstate.members = 2\n"
     "state.member1.weight = nan\nstate.member1.spec = uniform:n=2\n"
     "state.member2.weight = 1\nstate.member2.spec = basis:n=2",
     "bad mixed ensemble: ensemble weights must be non-negative"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "run.measure_entanglement = true\nstate.family = mixed_ensemble\n"
     "state.members = 1\nstate.member1.weight = 1\nstate.member1.spec = ghz:n=4",
     "run.measure_entanglement needs a pure state family"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "state.family = mixed_ensemble\nstate.members = 1\n"
     "state.member1.weight = 1\nstate.member1.spec = explicit:amps=1,0,0,1",
     "state.member1.spec has n=2 but run.n = 4"),
])
def test_config_errors_exit_2(tmp_path, monkeypatch, capsys, text, fragment):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "bad.txt", text + "\noutput.csv = r.csv\n"
                 "output.summary = s.json\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


def test_variant_keys_accepted_where_read():
    cfg = parse_config("experiment.id = demo\nrun.variant = oskw1\nrun.n = 4\n"
                       "run.restarts = 3\nrun.measure_entanglement = true\n"
                       "state.family = uniform")
    assert (cfg.restarts, cfg.measure_entanglement) == (3, True)
    cfg = parse_config("experiment.id = demo\nrun.variant = skw\nrun.n = 4\n"
                       "run.seeds = 1, 2\nrun.metric = gamma")
    assert cfg.seeds == (1, 2) and cfg.metric == "gamma"


def test_main_builds_parser_once(monkeypatch, capsys):
    assert main(["measures", "uniform:n=2"]) == 0
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["measures", "uniform:n=2"], ["verify", "--max-n", "2",
                                               "--trials", "1"],
                 ["measures", "uniform:n=2"]):
        assert main(argv) == 0
    assert main(["run"]) == 2                  # usage error, same parser
    assert made == []


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == 2
    assert "config error" in capsys.readouterr().err


def test_conservation_guard_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qwsearch.walk.CONSERVATION_TOL", 1e-18)
    text = """
experiment.id = tight
run.variant = skw
run.n = 5
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:")
    assert "walker norm conservation" in err


def test_run_reference_algorithm_at_twelve_directions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = large
run.variant = skw
run.n = 12
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 0
    (row,) = _read_rows(tmp_path / "rows.csv")
    assert row["n"] == "12" and 0.4 <= float(row["p_avg"]) <= 0.5


def test_out_env_redirects_relative_paths(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QWSEARCH_OUT", str(outdir))
    text = """
experiment.id = envtest
run.variant = skw3
run.n = 4
state.family = basis
output.csv = rows.csv
output.summary = nested/summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 0
    assert (outdir / "rows.csv").exists()
    assert (outdir / "nested" / "summary.json").exists()
    assert not (tmp_path / "rows.csv").exists()


def test_measures_uniform(capsys):
    assert main(["measures", "uniform:n=4"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["f_c"] == pytest.approx(1.0, abs=1e-14)
    assert payload["C_f"] == pytest.approx(math.sqrt(15 / 16), abs=1e-14)
    assert payload["converged"] is True
    assert isinstance(payload["sweeps"], int) and payload["sweeps"] >= 1
    assert f"{payload['sweeps']} sweeps" in out


def test_measures_line_describes_reported_restart(capsys, monkeypatch):
    # the reported restart (optimizer seed 0) converges in 23 sweeps, 20
    # sweeps and 3 Newton steps; under a cap of 25 two other restarts (28 and
    # 27 sweeps uncapped) run into it
    monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", 25)
    assert main(["measures", "haar:n=8,seed=15"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert (payload["converged"], payload["sweeps"]) == (True, 25)
    assert "reported restart converged; 32 restarts, at most 25 sweeps)" in out


def test_measures_ghz3(capsys):
    assert main(["measures", "ghz:n=3", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["E_g"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert payload["E_g_overlap"] == pytest.approx(0.5, abs=1e-6)


def test_measures_basis(capsys):
    assert main(["measures", "basis:n=4,i=0"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["E_g"] == pytest.approx(0.0, abs=1e-8)
    assert payload["C_f"] == 0.0
    assert payload["f_c"] == pytest.approx(1 / 16, abs=1e-15)


@pytest.mark.parametrize("spec,fragment", [
    ("hologram:n=3", "unknown state family"),
    ("explicit:amps=nan,0,0,1", "explicit amplitudes must be finite"),
])
def test_measures_bad_spec_exit_2(capsys, spec, fragment):
    assert main(["measures", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and fragment in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["measures", "haar:n=21"],
    ["run", "mix.cfg"],
])
def test_spec_n_refused_before_the_state_is_built(tmp_path, monkeypatch, capsys,
                                                  argv):
    def never(**kwargs):
        raise AssertionError("state built past the walk size guard")
    family = states.FAMILIES["haar_random"]
    monkeypatch.setitem(states.FAMILIES, "haar_random", family._replace(make=never))
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mix.cfg", "experiment.id = demo\nrun.variant = skw1\n"
           "run.n = 4\nstate.family = mixed_ensemble\nstate.members = 1\n"
           "state.member1.weight = 1\nstate.member1.spec = haar:n=21\n")
    assert main(argv) == 2
    assert "n must be <= 20 (walk size guard), got 21" in capsys.readouterr().err


def test_bad_swept_value_refused_before_any_row_is_prepared(tmp_path, monkeypatch,
                                                            capsys):
    from qwsearch.runners import VARIANTS
    calls = []
    prepare = VARIANTS["skw3"].prepare

    def counted(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)
    monkeypatch.setitem(VARIANTS, "skw3", VARIANTS["skw3"]._replace(prepare=counted))
    cfg = _write(tmp_path / "sweep.cfg",
                 "experiment.id = demo\nrun.variant = skw3\nrun.n = 4\n"
                 "run.seeds = 0, 1\nstate.family = tilted\nstate.s = 0.5, 0.7, 2\n")
    assert main(["run", cfg]) == 2
    assert ("config error: state.s: bad tilted state: tilt parameter s=2.0 "
            "outside [0, 1]") in capsys.readouterr().err
    assert calls == []


def test_oskw_size_refused_before_any_state_is_built(tmp_path, monkeypatch, capsys):
    def never(n):
        raise AssertionError("a start state was built")
    monkeypatch.setattr("qwsearch.runners.make_even_uniform_node_state", never)
    cfg = _write(tmp_path / "big.cfg",
                 "experiment.id = big\nrun.variant = oskw\nrun.n = 20\n")
    assert main(["run", cfg]) == 2
    assert ("config error: run.variant = oskw: it walks n + 1 directions, so n "
            "(run.n) must be <= 19 (walk size guard), got 20") in capsys.readouterr().err


def test_member_n_refused_before_any_member_is_built(tmp_path, monkeypatch, capsys):
    def never(**kwargs):
        raise AssertionError("member built before its n was checked")
    for name in ("uniform", "haar_random"):
        monkeypatch.setitem(states.FAMILIES, name, states.FAMILIES[name]._replace(make=never))
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "mix.cfg", "experiment.id = demo\nrun.variant = skw1\n"
                 "run.n = 4\nstate.family = mixed_ensemble\nstate.members = 2\n"
                 "state.member1.weight = 1\nstate.member1.spec = uniform:n=4\n"
                 "state.member2.weight = 1\nstate.member2.spec = haar:n=18\n")
    assert main(["run", cfg]) == 2
    assert "state.member2.spec has n=18 but run.n = 4" in capsys.readouterr().err


@pytest.mark.parametrize("spec,fragment", [
    ("ghz:n=3,beta=2", "state family 'ghz' does not take beta"),
    ("haar:n=4,sed=7", "state family 'haar_random' does not take sed"),
    ("uniform:n=4,i=3", "state family 'uniform' does not take i"),
])
def test_measures_param_outside_family_exit_2(capsys, spec, fragment):
    assert main(["measures", spec]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measures", "uniform:n=4", "--restarts", "0"],
    ["sweep-fig4", "--n", "3", "--restarts", "-1"],
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-1"],
    ["verify", "--seed", "-1"],
    ["measures", "uniform:n=4", "--seed", "-1"],
    ["sweep-fig4", "--n", "3", "--seed", "-1"],
])
def test_restarts_below_one_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWSEARCH_OUT", raising=False)
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag, value = argv[-2:]
    low = 0 if flag == "--seed" else 1
    assert f"{flag} must be >= {low}, got {value}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_readme_config_block_parses():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    cfg = parse_config(block)
    assert cfg.state_family == "interpolated"
    assert cfg.family_params == {"t": [0.0, 0.25, 0.5, 1.0]}
    # every key the parser knows is shown, set or commented out
    named = set(re.findall(r"^#?\s*([\w.]+)\s*=", block, re.M))
    assert cli._KNOWN_KEYS <= named, sorted(cli._KNOWN_KEYS - named)


def test_readme_python_quickstart_runs(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Quickstart (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == block.count("print(")


def test_verify_passes(capsys):
    assert main(["verify", "--max-n", "3", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert re.search(r"all \d+ checks passed", out)


def test_sweep_fig4_small(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-fig4", "--n", "4", "--samples", "4", "--out",
                 str(out), "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"12 rows -> {out / 'sweep_fig4.csv'}",
        f"summary -> {out / 'sweep_fig4_summary.json'}"]
    rows = _read_rows(out / "sweep_fig4.csv")
    assert len(rows) == 12
    by_variant = {}
    for r in rows:
        by_variant.setdefault(r["variant"], []).append(r)
    assert {k: len(v) for k, v in by_variant.items()} == {
        "skw1": 4, "skw2": 4, "skw3": 4}

    first, last = by_variant["skw1"][0], by_variant["skw1"][-1]
    assert abs(float(first["f_c"]) - 1 / 16) < 1e-14   # t=0 start is a vertex
    assert abs(float(last["f_c"]) - 1.0) < 1e-14       # t=1 start is flat
    assert abs(float(last["p_pred"]) - 0.5) < 1e-14

    ghz_end = by_variant["skw2"][-1]                   # alpha = pi/4
    assert abs(float(ghz_end["p_pred"]) - 0.25) < 1e-6

    for r in by_variant["skw3"]:
        c_f = float(r["C_f"])
        assert abs(float(r["p_pred"]) - (1 - c_f ** 2) / 2) < 1e-12

    assert [r["experiment_id"] for r in rows] == [
        f"fig4-{v}-{k:02d}" for v in ("skw1", "skw2", "skw3") for k in range(4)]
    summary = json.loads((out / "sweep_fig4_summary.json").read_text())
    assert summary["p_pred_recompute_max_dev"] <= 1e-12


def test_sweep_fig4_past_walk_guard_exit_2(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-fig4", "--n", "21", "--samples", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--n must be <= 20 (walk size guard), got 21" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_fig4_overwrites(tmp_path, capsys):
    out = tmp_path / "sweep"
    for _ in range(2):
        assert main(["sweep-fig4", "--n", "3", "--samples", "2", "--out",
                     str(out)]) == 0
    rows = _read_rows(out / "sweep_fig4.csv")
    assert len(rows) == 6  # fresh file each time, not an append



def _count_kernel_builds(monkeypatch):
    """Count the weight builds of the builder `walk_rows` calls."""
    from qwsearch import runners
    builds = []
    build = runners.walsh_weights
    monkeypatch.setattr(runners, "walsh_weights",
                        lambda *args: builds.append(args) or build(*args))
    return builds


def test_sweep_fig4_walks_one_row_group(tmp_path, monkeypatch):
    builds = _count_kernel_builds(monkeypatch)
    argv = ["sweep-fig4", "--n", "5", "--samples", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(builds) == 1
    assert main(argv) == 0     # a second command builds its own kernels
    assert len(builds) == 2


@pytest.mark.parametrize("variant,family,seeds,expected", [
    ("skw2", "state.family = ghz\nstate.alpha = 0.1, 0.4, 0.7", "0, 1, 2, 3, 4", 1),
    ("oskw1", "state.family = haar_random", "0, 1, 2, 3", 4),
])
def test_config_kernel_builds(tmp_path, monkeypatch, variant, family, seeds, expected):
    monkeypatch.chdir(tmp_path)
    builds = _count_kernel_builds(monkeypatch)
    cfg = _write(tmp_path / "cfg.txt", f"experiment.id = builds\nrun.variant = {variant}\n"
                 f"run.n = 6\nrun.seeds = {seeds}\n{family}\n")
    assert main(["run", cfg]) == 0
    assert len(builds) == expected


@pytest.mark.parametrize("n,restarts", [(5, None), (9, None), (5, 4)],
                         ids=["5", "9", "5-restarts4"])
def test_sweep_fig4_matches_one_row_runners(tmp_path, monkeypatch, n, restarts):
    from qwsearch import (make_ghz_node_state, make_interpolated_node_state,
                          make_tilted_node_state, prepare_skw1, prepare_skw2_rows,
                          prepare_skw3, runners, walk_rows)
    samples, seed = 4, 2
    # (state count, restarts) of each optimizer call the sweep makes
    calls, optimize = [], runners.optimize_local_layers
    monkeypatch.setattr(runners, "optimize_local_layers", lambda states, r, seeds:
                        calls.append((len(states), r)) or optimize(states, r, seeds))
    argv = ["sweep-fig4", "--n", str(n), "--samples", str(samples),
            "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv + ([] if restarts is None else ["--restarts", str(restarts)])) == 0
    assert calls == [(samples, restarts)]   # one pool for all GHZ states
    rows = _read_rows(tmp_path / "sweep_fig4.csv")
    prepared = [[prepare_skw1(make_interpolated_node_state(n, float(t)), seed=seed)]
                for t in np.linspace(0.0, 1.0, samples)]
    prepared += [prepare_skw2_rows([make_ghz_node_state(n, float(a))], [seed], restarts)
                 for a in np.linspace(0.0, math.pi / 4.0, samples)]
    prepared += [[prepare_skw3(make_tilted_node_state(n, float(s)), seed=seed)]
                 for s in np.linspace(1.0 / 2 ** n, 1.0, samples)]
    ones = [walk_rows(group)[0] for group in prepared]
    assert len(rows) == len(ones)
    for k, (row, res) in enumerate(zip(rows, ones)):
        one = cli.result_row(f"fig4-{res.variant}-{k % samples:02d}", res)
        assert ({k: v for k, v in row.items() if k != "wall_ms"}
                == {k: cli._cell(v) for k, v in one.items() if k != "wall_ms"})
    summary = json.loads((tmp_path / "sweep_fig4_summary.json").read_text())
    assert summary["wall_ms_total"] == sum(float(row["wall_ms"]) for row in rows)


@pytest.mark.parametrize("own,n,given,given_n,family", [
    ("skw", 6, "skw1", 6, "uniform"), ("oskw", 6, "oskw1", 7, "even_uniform"),
])
def test_own_start_rows_match_the_state_as_given(own, n, given, given_n, family):
    # skw and oskw walk the flat and even-flat starts through skw1's and oskw1's steps
    def rows(text):
        return cli.execute_config(parse_config(
            f"experiment.id = same\nrun.seeds = 0, 3\n{text}"))

    own_rows = rows(f"run.variant = {own}\nrun.n = {n}")
    given_rows = rows(f"run.variant = {given}\nrun.n = {given_n}\n"
                      f"state.family = {family}")
    assert [row["variant"] for row in own_rows] == [own, own]
    assert ([{k: cli._cell(v) for k, v in row.items() if k not in ("variant", "wall_ms")}
             for row in own_rows]
            == [{k: cli._cell(v) for k, v in row.items() if k not in ("variant", "wall_ms")}
                for row in given_rows])


def _record_results(monkeypatch):
    """Every RunResult the CLI writes as a row, in row order."""
    results = []
    result_row = cli.result_row

    def recording(*args):
        results.append(args[1])
        return result_row(*args)
    monkeypatch.setattr(cli, "result_row", recording)
    return results


@pytest.mark.parametrize("variant,family", [
    ("skw", ""), ("skw1", "state.family = haar_random"),
    ("skw2", "state.family = haar_random"), ("skw3", "state.family = haar_random"),
    ("oskw", ""), ("oskw1", "state.family = haar_random"),
])
def test_csv_seed_is_the_run_result_seed(tmp_path, monkeypatch, variant, family):
    monkeypatch.chdir(tmp_path)
    results = _record_results(monkeypatch)
    cfg = _write(tmp_path / "cfg.txt", f"experiment.id = seeds\nrun.variant = {variant}\n"
                 f"run.n = 5\nrun.seeds = 3, 5\n{family}\n")
    assert main(["run", cfg]) == 0
    seeds = [row["seed"] for row in _read_rows(tmp_path / "results.csv")]
    assert seeds == ["3", "5"]
    assert seeds == [str(res.seed) for res in results]


def test_sweep_fig4_csv_seed_is_the_run_result_seed(tmp_path, monkeypatch):
    results = _record_results(monkeypatch)
    assert main(["sweep-fig4", "--n", "4", "--samples", "2", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    seeds = [row["seed"] for row in _read_rows(tmp_path / "sweep_fig4.csv")]
    assert seeds == ["7"] * 6
    assert seeds == [str(res.seed) for res in results]
