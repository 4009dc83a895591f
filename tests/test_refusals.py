"""Refusals on branches the feature tests do not reach: each command or
config exits 2 with its fault named, and each library call raises."""

import pytest

from qwsearch import (LocalLayer, MixedEnsemble, apply_local_layer,
                      fidelity_coherence, make_uniform_node_state, overlap,
                      pauli_layer)
from qwsearch.cli import main


@pytest.mark.parametrize("spec,fragment", [
    ("explicit:amps=1,0,0",
     "explicit amplitudes need a power-of-two length >= 4, got 3"),
    ("explicit:amps=0,0,0,0", "explicit amplitudes are all zero"),
    ("explicit:n=2", "explicit spec needs amps=..., got 'n=2'"),
    ("haar:seed=1", "state family 'haar_random' needs n=..."),
    ("tilted:n=3,s=2", "bad tilted state: tilt parameter s=2.0 outside [0, 1]"),
    ("ghz:n=3,alpha", "bad state spec fragment 'alpha' in 'ghz:n=3,alpha'"),
])
def test_measures_refusals_exit_2(capsys, spec, fragment):
    assert main(["measures", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and fragment in captured.err
    assert captured.out == ""


HEAD = "experiment.id = demo\nrun.variant = skw1\nrun.n = 3\n"
MIXED = HEAD + "state.family = mixed_ensemble\n"


@pytest.mark.parametrize("text,fragment", [
    (HEAD + "state.family = explicit\nstate.amps = 1, 0, 0, 0",
     "state.amps encodes n=2 qubits but run.n = 3"),
    (HEAD + "run.measure_entanglement = maybe",
     "run.measure_entanglement: expected a boolean, got 'maybe'"),
    (HEAD + "= 3", "line 4: empty key"),
    ("experiment.id = a,b\nrun.variant = skw1\nrun.n = 3",
     "experiment.id must be non-empty and CSV-safe"),
    ("experiment.id = demo\nrun.n = 3", "missing required key 'run.variant'"),
    ("experiment.id = demo\nrun.variant = skw1", "missing required key 'run.n'"),
    (HEAD + "state.family = hologram",
     "state.family must be one of ('uniform', "),
    (HEAD + "run.metric = edge", "run.metric must be vertex or gamma, got 'edge'"),
    (MIXED + "state.members = 0", "mixed_ensemble needs state.members >= 1"),
    (MIXED + "state.members = 1\nstate.member1.weight = 1",
     "member 1 needs both state.member1.weight and .spec"),
    (MIXED + "state.members = 1\nstate.member1.weight = 1\n"
     "state.member1.spec = uniform:n=3\nstate.member2.weight = 1",
     "member keys beyond state.members=1: [2]"),
    (HEAD + "state.family = uniform\nstate.member1.weight = 1",
     "state.member* keys require state.family = mixed_ensemble"),
    (HEAD + "state.family = uniform\noutput.csv = taken", "cannot write output"),
    ("experiment.id = demo\nrun.variant = skw3\nrun.n = 3\nrun.metric = gamma\n"
     "state.family = tilted\nstate.s = 0.5, 2",
     "bad tilted state: tilt parameter s=2.0 outside [0, 1]"),
])
def test_run_refusals_exit_2(tmp_path, monkeypatch, capsys, text, fragment):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWSEARCH_OUT", raising=False)
    (tmp_path / "taken").mkdir()        # a directory where a file should go
    cfg = tmp_path / "bad.txt"
    cfg.write_text(text + "\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and fragment in captured.err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("call,fragment", [
    (lambda: fidelity_coherence(MixedEnsemble(((1.0, make_uniform_node_state(2)),))),
     "fidelity coherence is defined here for pure states only"),
    (lambda: LocalLayer(()), "layer needs at least one factor"),
    (lambda: overlap(make_uniform_node_state(2), make_uniform_node_state(3)),
     "overlap of states with different n: 2 vs 3"),
    (lambda: apply_local_layer(make_uniform_node_state(3), pauli_layer("XZ")),
     "layer has 2 factors for an n=3 state"),
])
def test_library_refusals_raise(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
