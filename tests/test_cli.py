import csv
import json
import math
import os
import re

import pytest

from qwsearch.cli import CSV_COLUMNS, main


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
    cfg = _write(tmp_path / "cfg.txt", BASE)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "11 rows" in out
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
run.tau_rule = explicit
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
     "one family parameter"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\n"
     "numerics.not_a_field = 1", "numerics"),
    ("experiment.id = demo\nrun.variant = skw1\nrun.n = 4\nrun.threads = 2",
     "unknown key"),
])
def test_config_errors_exit_2(tmp_path, monkeypatch, capsys, text, fragment):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "bad.txt", text + "\noutput.csv = r.csv\n"
                 "output.summary = s.json\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == 2
    assert "config error" in capsys.readouterr().err


def test_conservation_guard_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = tight
run.variant = skw
run.n = 5
numerics.conservation_tol = 1e-18
output.csv = rows.csv
output.summary = summary.json
"""
    assert main(["run", _write(tmp_path / "cfg.txt", text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:")
    assert "walker norm conservation" in err


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


def test_measures_bad_spec_exit_2(capsys):
    assert main(["measures", "hologram:n=3"]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify", "--max-n", "3", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert re.search(r"all \d+ checks passed", out)


def test_sweep_fig4_small(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-fig4", "--n", "4", "--samples", "4", "--out",
                 str(out), "--seed", "1"]) == 0
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

    ids = [r["experiment_id"] for r in rows]
    assert ids == sorted(ids)  # fig4-skw1-00 .. fig4-skw3-03
    summary = json.loads((out / "sweep_fig4_summary.json").read_text())
    assert summary["p_pred_recompute_max_dev"] <= 1e-12


def test_sweep_fig4_overwrites(tmp_path, capsys):
    out = tmp_path / "sweep"
    for _ in range(2):
        assert main(["sweep-fig4", "--n", "3", "--samples", "2", "--out",
                     str(out)]) == 0
    rows = _read_rows(out / "sweep_fig4.csv")
    assert len(rows) == 6  # fresh file each time, not an append

