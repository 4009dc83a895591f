"""Command-line harness: configured runs, measure sweeps, verification.

Subcommands:

    run <config>        execute a configured experiment, append CSV rows,
                        write a JSON summary
    sweep-fig4          sweep the three one-parameter state families and
                        emit (measure, observed, predicted) rows per variant
    measures <spec>     print the resource report of one state
    verify              run the independent oracle suite at small sizes

Exit status: 0 success, 2 configuration or spec parse failure, 3 runtime
invariant violation (the invariant is named on standard error).

Config files are flat `dotted.key = value` lines; `#` starts a comment.
Relative output paths resolve against $QWSEARCH_OUT when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from .config import WALK_GUARD_N, InvariantViolation
from .measures import ResourceReport, groverian_entanglement
from .oracle import oracle_suite
from .runners import (VARIANTS, RunResult, predicted_probability, prepare_skw1,
                      prepare_skw2_rows, prepare_skw3, walk_rows)
from .states import (MixedEnsemble, NodeState, make_basis_node_state,
                     make_even_uniform_node_state, make_ghz_node_state,
                     make_interpolated_node_state, make_random_node_state,
                     make_tilted_node_state, make_uniform_node_state,
                     make_w_node_state)
from .walk import IterationPlan

OUT_ENV = "QWSEARCH_OUT"

CSV_COLUMNS = ("experiment_id", "variant", "n", "tau", "seed", "f_c", "E_g",
               "C_f", "p_avg", "p_pred", "abs_dev", "leaked_weight", "wall_ms")


class ConfigError(ValueError):
    """Anything wrong with a config file or state spec; maps to exit 2."""


# ---------------------------------------------------------------------------
# state families

def _explicit_state(amps: str, n: Optional[int] = None) -> NodeState:
    """Comma-separated complex amplitudes, normalized; n, when given, must match."""
    vec = np.array([complex(a) for a in amps.split(",")])
    if vec.size < 4 or vec.size & (vec.size - 1):
        raise ConfigError("explicit amplitudes need a power-of-two "
                          f"length >= 4, got {vec.size}")
    if not np.isfinite(vec).all():
        raise ConfigError(f"explicit amplitudes must be finite, got {amps!r}")
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ConfigError("explicit amplitudes are all zero")
    state = NodeState(int(vec.size).bit_length() - 1, vec / norm)
    if n is not None and state.n != n:
        raise ConfigError(f"state.amps encodes n={state.n} qubits but run.n = {n}")
    return state


class _Family(NamedTuple):
    make: Optional[Callable[..., NodeState]]   # None: built from members
    params: Mapping[str, object]               # parameter -> default
    alias: Optional[str] = None


_REQUIRED = object()    # parameter without a default
_ROW_SEED = object()    # defaults to the row's seed
_FAMILIES = {
    "uniform": _Family(make_uniform_node_state, {"n": _REQUIRED}),
    "basis": _Family(make_basis_node_state, {"n": _REQUIRED, "i": 0}),
    "haar_random": _Family(make_random_node_state,
                           {"n": _REQUIRED, "seed": _ROW_SEED}, "haar"),
    "interpolated": _Family(make_interpolated_node_state,
                            {"n": _REQUIRED, "t": 1.0}),
    "ghz": _Family(make_ghz_node_state, {"n": _REQUIRED, "alpha": math.pi / 4}),
    "w": _Family(make_w_node_state, {"n": _REQUIRED}),
    "tilted": _Family(make_tilted_node_state, {"n": _REQUIRED, "s": 1.0}),
    "even_uniform": _Family(make_even_uniform_node_state, {"n": _REQUIRED}),
    "explicit_amplitudes": _Family(_explicit_state,
                                   {"amps": _REQUIRED, "n": None}, "explicit"),
    "mixed_ensemble": _Family(None, {}, "mixed"),
}
_FAMILY_NAMES = {**{f.alias: name for name, f in _FAMILIES.items() if f.alias},
                 **{name: name for name in _FAMILIES}}


def _check_params(family: str, names: Iterable[str]) -> None:
    """Reject any parameter the family's table does not list."""
    for name in names:
        if name not in _FAMILIES[family].params:
            raise ConfigError(f"state family {family!r} does not take {name}")


def _build_state(family: str, values: Mapping[str, object],
                 seed: int) -> NodeState:
    """A family's state from typed parameter values; the rest take defaults."""
    make, params, _ = _FAMILIES[family]
    kwargs = {}
    for name, default in params.items():
        if name in values:
            kwargs[name] = values[name]
        elif default is _REQUIRED:
            raise ConfigError(f"state family {family!r} needs {name}=...")
        else:
            kwargs[name] = seed if default is _ROW_SEED else default
    try:
        return make(**kwargs)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad {family} state: {exc}") from None


# ---------------------------------------------------------------------------
# config parsing

def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _to_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


# every state parameter with its type, for both grammars, in the order a
# config's "does not take" check names them; a config sets state.<name>,
# except n and seed, which come from run.n and run.seeds
_STATE_PARAMS = {"i": _to_int, "t": _to_float, "alpha": _to_float, "s": _to_float,
                 "amps": lambda key, value: value, "n": _to_int, "seed": _to_int}
_KNOWN_KEYS = {
    "experiment.id", "run.variant", "run.n", "run.tau", "run.seeds",
    "run.restarts", "run.measure_entanglement", "run.metric", "state.family",
    "state.members", "output.csv", "output.summary",
    *(f"state.{name}" for name in _STATE_PARAMS if name not in ("n", "seed")),
}
_MEMBER_KEY = re.compile(r"^state\.member(\d+)\.(weight|spec)$")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment: what to run, on which states, where to write."""

    experiment_id: str
    variant: str
    n: int
    tau: Optional[int]          # run.tau; None: the walk's optimal step count
    seeds: Tuple[int, ...]
    restarts: Optional[int]
    measure_entanglement: bool
    metric: str
    state_family: str
    family_params: Mapping[str, object]
    members: Tuple[Tuple[float, str], ...]
    output_csv: str
    output_summary: str
    raw: Mapping[str, str]


def _parse_kv_text(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _at_least(name: str, value: Optional[int], low: int) -> Optional[int]:
    """The value, unless it is set and below low."""
    if value is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _cube_size(name: str, n: int) -> int:
    """The walk size n, unless it is below 2 or past the walk size guard."""
    _at_least(name, n, 2)
    if n > WALK_GUARD_N:
        raise ConfigError(f"{name} must be <= {WALK_GUARD_N} (walk size guard), "
                          f"got {n}")
    return n


def _param_value(key: str, value: str, parse: Callable[[str, str], object]):
    """A config parameter's value; a comma list of numbers sweeps it."""
    if parse is not _to_float:
        return parse(key, value)
    # with no number in the list, parsing the whole value names the fault
    vals = [parse(key, p) for p in value.split(",") if p.strip()] or [parse(key, value)]
    return vals if len(vals) > 1 else vals[0]


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; raises ConfigError on any problem."""
    kv = _parse_kv_text(text)
    members: Dict[int, Dict[str, str]] = {}
    for key, value in kv.items():
        if key in _KNOWN_KEYS:
            continue
        m = _MEMBER_KEY.match(key)
        if m:
            members.setdefault(int(m.group(1)), {})[m.group(2)] = value
            continue
        raise ConfigError(f"unknown key {key!r}")

    if "experiment.id" not in kv:
        raise ConfigError("missing required key 'experiment.id'")
    exp_id = kv["experiment.id"]
    if not exp_id or re.search(r'[,"\n\r]', exp_id):
        raise ConfigError("experiment.id must be non-empty and CSV-safe")
    if "run.variant" not in kv:
        raise ConfigError("missing required key 'run.variant'")
    variant = kv["run.variant"].lower()
    if variant not in VARIANTS:
        raise ConfigError(f"run.variant must be one of {tuple(VARIANTS)}, "
                          f"got {variant!r}")
    takes = VARIANTS[variant].takes
    for name in ("restarts", "measure_entanglement"):
        if f"run.{name}" in kv and name not in takes:
            readers = [v for v, spec in VARIANTS.items() if name in spec.takes]
            raise ConfigError(f"run.{name} applies to {', '.join(readers)} only, "
                              f"not run.variant = {variant}")
    if "state" not in takes:
        for key in kv:
            if key.startswith("state."):
                raise ConfigError(f"{key}: run.variant = {variant} builds its "
                                  "own start state")
    if "run.n" not in kv:
        raise ConfigError("missing required key 'run.n'")
    n = _cube_size("run.n", _to_int("run.n", kv["run.n"]))

    tau = _to_int("run.tau", kv["run.tau"]) if "run.tau" in kv else None
    _at_least("run.tau", tau, 0)
    seeds = tuple(_at_least("run.seeds", _to_int("run.seeds", s), 0)
                  for s in kv.get("run.seeds", "0").split(","))

    family = kv.get("state.family", "uniform").lower()
    family = _FAMILY_NAMES.get(family, family)
    if family not in _FAMILIES:
        raise ConfigError(f"state.family must be one of {tuple(_FAMILIES)}, "
                          f"got {family!r}")

    params = {name: _param_value(f"state.{name}", kv[f"state.{name}"], parse)
              for name, parse in _STATE_PARAMS.items() if f"state.{name}" in kv}
    _check_params(family, params)
    t_vals = params.get("t")
    if t_vals is not None:
        for t in (t_vals if isinstance(t_vals, list) else [t_vals]):
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"state.t values must lie in [0, 1], got {t}")

    member_list: List[Tuple[float, str]] = []
    measure_entanglement = _to_bool("run.measure_entanglement",
                                    kv.get("run.measure_entanglement", "false"))
    if family == "mixed_ensemble":
        if variant != "skw1":   # skw1 alone takes mixtures
            raise ConfigError(f"{variant} needs a pure state family")
        if measure_entanglement:
            raise ConfigError("run.measure_entanglement needs a pure state family")
        count = _to_int("state.members", kv.get("state.members", "0"))
        if count < 1:
            raise ConfigError("mixed_ensemble needs state.members >= 1")
        for idx in range(1, count + 1):
            entry = members.pop(idx, None)
            if not entry or "weight" not in entry or "spec" not in entry:
                raise ConfigError(
                    f"member {idx} needs both state.member{idx}.weight and .spec"
                )
            member_list.append((_to_float(f"state.member{idx}.weight",
                                          entry["weight"]), entry["spec"]))
            # refused before any state is built (explicit amps: once built)
            spec_n = _parse_spec(entry["spec"])[1].get("n", n)
            if spec_n != n:
                raise ConfigError(f"state.member{idx}.spec has n={spec_n} but run.n = {n}")
        if members:
            raise ConfigError(f"member keys beyond state.members={count}: "
                              f"{sorted(members)}")
    elif members or "state.members" in kv:
        raise ConfigError("state.member* keys require state.family = mixed_ensemble")

    metric = kv.get("run.metric", "vertex")
    if metric not in ("vertex", "gamma"):
        raise ConfigError(f"run.metric must be vertex or gamma, got {metric!r}")
    restarts = (_to_int("run.restarts", kv["run.restarts"])
                if "run.restarts" in kv else None)
    _at_least("run.restarts", restarts, 1)

    return ExperimentConfig(
        experiment_id=exp_id,
        variant=variant,
        n=n,
        tau=tau,
        seeds=seeds,
        restarts=restarts,
        measure_entanglement=measure_entanglement,
        metric=metric,
        state_family=family,
        family_params=params,
        members=tuple(member_list),
        output_csv=kv.get("output.csv", "results.csv"),
        output_summary=kv.get("output.summary", "summary.json"),
        raw=dict(kv),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# state specs (also the grammar for the `measures` subcommand)

def parse_state_spec(spec: str, default_seed: int) -> NodeState:
    """Build a state from 'family:key=value,key=value'.

    Families: uniform:n=4; basis:n=3,i=5; haar:n=8,seed=7; ghz:n=3[,alpha=...];
    w:n=3; interpolated:n=8,t=0.5; tilted:n=8,s=0.9; even_uniform:n=9;
    explicit:amps=0.6,0,0,0.8j (normalized for you).
    """
    return _build_state(*_parse_spec(spec), default_seed)


def _parse_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """A spec's family and typed values; n past the walk size guard is refused."""
    family, _, rest = spec.partition(":")
    family = _FAMILY_NAMES.get(family.strip().lower())
    if family is None or _FAMILIES[family].make is None:
        raise ConfigError(f"unknown state family in {spec!r}")
    kv: Dict[str, str] = {}
    if rest.strip():
        if family == "explicit_amplitudes":
            # amps holds commas itself, so parse this family's tail as one key
            key, _, value = rest.partition("=")
            if key.strip() != "amps":
                raise ConfigError(f"explicit spec needs amps=..., got {rest!r}")
            kv["amps"] = value.strip()
        else:
            for part in rest.split(","):
                if "=" not in part:
                    raise ConfigError(f"bad state spec fragment {part!r} in {spec!r}")
                key, _, value = part.partition("=")
                kv[key.strip()] = value.strip()
    _check_params(family, kv)
    values = {key: _STATE_PARAMS[key](key, value) for key, value in kv.items()}
    if values.get("n", 0) > WALK_GUARD_N:
        _cube_size(f"{spec!r}: n", values["n"])
    return family, values


def _config_state(cfg: ExperimentConfig, seed: int, sweep_value: Optional[float]):
    if cfg.state_family == "mixed_ensemble":
        pairs = tuple((w, parse_state_spec(s, seed)) for w, s in cfg.members)
        for k, (_, member) in enumerate(pairs, start=1):
            if member.n != cfg.n:
                raise ConfigError(f"state.member{k}.spec has n={member.n} "
                                  f"but run.n = {cfg.n}")
        try:
            return MixedEnsemble(pairs)
        except ValueError as exc:
            raise ConfigError(f"bad mixed ensemble: {exc}") from None
    values = {key: sweep_value if isinstance(value, list) else value
              for key, value in cfg.family_params.items()}
    return _build_state(cfg.state_family, {**values, "n": cfg.n}, seed)


# ---------------------------------------------------------------------------
# CSV + JSON emission

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def result_row(experiment_id: str, result: RunResult, seed: int) -> Dict[str, object]:
    r = result.resource
    row = {
        "experiment_id": experiment_id, "variant": result.variant,
        "n": result.n, "tau": result.tau, "seed": seed,
        "f_c": r.f_c, "E_g": r.E_g, "C_f": r.C_f,
        "p_avg": result.p_avg, "p_pred": result.p_pred,
        "abs_dev": result.abs_dev, "leaked_weight": result.leaked_weight,
        "wall_ms": result.wall_ms,
    }
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvariantViolation("row finiteness", f"{key} = {value!r}")
    return row


def _resolve_out(path: str) -> str:
    """The output path, under $QWSEARCH_OUT when relative; creates its parents."""
    if not os.path.isabs(path):
        base = os.environ.get(OUT_ENV, "")
        path = os.path.join(base, path) if base else path
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def write_csv_rows(path: str, rows: Sequence[Mapping[str, object]]) -> str:
    path = _resolve_out(path)
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return path


def write_summary(path: str, config_echo: Mapping[str, str],
                  rows: Sequence[Mapping[str, object]],
                  extra: Mapping[str, object]) -> str:
    """Write the JSON summary; `extra` fields follow the standard ones."""
    path = _resolve_out(path)
    devs = [row["abs_dev"] for row in rows]
    bound = max(VARIANTS[str(row["variant"])].envelope
                / math.sqrt(2.0 ** int(row["n"])) for row in rows) if rows else None
    summary = {
        "schema_version": 1,
        "config": dict(config_echo),
        "rows": len(rows),
        "aggregates": {
            "mean_p_avg": float(np.mean([row["p_avg"] for row in rows])) if rows else None,
            "max_abs_dev": float(max(devs)) if rows else None,
            "deviation_bound": bound,
            "within_bound": (float(max(devs)) <= bound) if rows else None,
        },
        "wall_ms_total": float(sum(row["wall_ms"] for row in rows)),
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# subcommands

def _run_rows(cfg: ExperimentConfig, states: Iterable, plan) -> Iterator[RunResult]:
    """One sweep value's rows, in seed order: one call of the variant's
    row-group runner if it has one, else one runner call per row as its state
    arrives. A runner's ValueError is a config fault."""
    variant = VARIANTS[cfg.variant]
    try:
        if variant.rows is not None:
            yield from variant.rows(list(states), cfg.seeds, plan, cfg.restarts,
                                    metric=cfg.metric)
            return
        for state, seed in zip(states, cfg.seeds):
            inputs = {"n": cfg.n, "state": state, "seed": seed, "restarts": cfg.restarts,
                      "measure_entanglement": cfg.measure_entanglement}
            yield variant.run(plan=plan, metric=cfg.metric,
                              **{name: inputs[name] for name in variant.takes})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"run.variant = {cfg.variant}: {exc}") from None


def execute_config(cfg: ExperimentConfig) -> List[Dict[str, object]]:
    """All rows for one config, in deterministic config order."""
    plan = None if cfg.tau is None else IterationPlan.explicit(cfg.tau)
    needs_state = "state" in VARIANTS[cfg.variant].takes
    # _check_params leaves at most one list: no family takes two floats
    sweep_values = next((v for v in cfg.family_params.values()
                         if isinstance(v, list)), [None])

    rows = []
    for value in sweep_values:
        states = (_config_state(cfg, seed, value) if needs_state else None
                  for seed in cfg.seeds)
        rows += [result_row(cfg.experiment_id, result, seed)
                 for seed, result in zip(cfg.seeds, _run_rows(cfg, states, plan))]
    return rows


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    rows = execute_config(cfg)
    try:
        csv_path = write_csv_rows(cfg.output_csv, rows)
        summary_path = write_summary(cfg.output_summary, cfg.raw, rows, {})
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    print(f"{len(rows)} rows -> {csv_path}")
    print(f"summary -> {summary_path}")
    return 0


def _cmd_sweep(args) -> int:
    n = _cube_size("--n", args.n)
    _at_least("--samples", args.samples, 2)
    _at_least("--restarts", args.restarts, 1)
    _at_least("--seed", args.seed, 0)
    # all rows walk as one group on one kernel build; each GHZ state gets its own optimizer
    prepared = [prepare_skw1(make_interpolated_node_state(n, float(t)), seed=args.seed)
                for t in np.linspace(0.0, 1.0, args.samples)]
    for alpha in np.linspace(0.0, math.pi / 4.0, args.samples):
        prepared += prepare_skw2_rows([make_ghz_node_state(n, float(alpha))],
                                      [args.seed], args.restarts)
    prepared += [prepare_skw3(make_tilted_node_state(n, float(s)))
                 for s in np.linspace(1.0 / (1 << n), 1.0, args.samples)]
    rows = [result_row(f"fig4-{res.variant}-{k % args.samples:02d}", res, args.seed)
            for k, res in enumerate(walk_rows(prepared))]

    out_dir = os.path.abspath(args.out or os.environ.get(OUT_ENV, "") or ".")
    csv_path = os.path.join(out_dir, "sweep_fig4.csv")
    try:
        if os.path.exists(csv_path):
            os.remove(csv_path)
        write_csv_rows(csv_path, rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None

    # self-check: every emitted p_pred must recompute from the emitted
    # measure cells after text round-trip
    worst = 0.0
    for row in rows:
        cells = {key: None if row[key] is None else float(_cell(row[key]))
                 for key in ("f_c", "C_f", "E_g")}
        redone = predicted_probability(str(row["variant"]), ResourceReport(**cells))
        worst = max(worst, abs(redone - float(_cell(row["p_pred"]))))
    echo = {"n": str(n), "samples": str(args.samples), "seed": str(args.seed)}
    summary_path = os.path.join(out_dir, "sweep_fig4_summary.json")
    write_summary(summary_path, echo, rows, {"p_pred_recompute_max_dev": worst})
    print(f"{len(rows)} rows -> {csv_path}")
    print(f"summary -> {summary_path}")
    if worst > 1e-12:
        raise InvariantViolation("prediction recompute",
                                 f"max deviation {worst} > 1e-12")
    return 0


def _cmd_measures(args) -> int:
    _at_least("--restarts", args.restarts, 1)
    _at_least("--seed", args.seed, 0)
    state = parse_state_spec(args.spec, args.seed)
    report = groverian_entanglement(state, restarts=args.restarts, seed=args.seed)
    print(f"state: {args.spec}")
    print(f"f_c = {report.f_c!r}")
    print(f"C_f = {report.C_f!r}")
    print(f"E_g = {report.E_g!r} (best product overlap {report.E_g_overlap!r}, "
          f"reported restart {'converged' if report.converged else 'NOT converged'}; "
          f"{report.restarts_used} restarts, at most {report.sweeps} sweeps)")
    print(json.dumps({
        "f_c": report.f_c, "C_f": report.C_f, "E_g": report.E_g,
        "E_g_overlap": report.E_g_overlap, "converged": report.converged,
        "restarts_used": report.restarts_used, "sweeps": report.sweeps,
    }))
    return 0


def _cmd_verify(args) -> int:
    _at_least("--max-n", args.max_n, 2)
    _at_least("--trials", args.trials, 1)
    _at_least("--seed", args.seed, 0)
    checks = oracle_suite(args.max_n, args.trials, args.seed)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    if failed:
        raise InvariantViolation("oracle agreement", ", ".join(failed))
    print(f"all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsearch",
        description="Quantum-walk search on the hypercube with resource measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("config", help="path to a dotted key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep-fig4",
        help="sweep the three one-parameter families against their predictions")
    p_sweep.add_argument("--n", type=int, default=8)
    p_sweep.add_argument("--samples", type=int, default=11)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None,
                         help=f"output directory (default ${OUT_ENV} or .)")
    p_sweep.add_argument("--restarts", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_meas = sub.add_parser("measures", help="print one state's resource report")
    p_meas.add_argument("spec", help="state spec, e.g. ghz:n=3 or haar:n=8,seed=7")
    p_meas.add_argument("--restarts", type=int, default=None)
    p_meas.add_argument("--seed", type=int, default=0)
    p_meas.set_defaults(func=_cmd_measures)

    p_ver = sub.add_parser("verify", help="run the independent oracle suite")
    p_ver.add_argument("--max-n", type=int, default=5)
    p_ver.add_argument("--trials", type=int, default=8)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc.invariant}"
              + (f" ({exc.detail})" if exc.detail else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
