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
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .config import DEFAULT, InvariantViolation, NumericsConfig
from .measures import ResourceReport, groverian_entanglement
from .runners import (VARIANTS, RunResult, predicted_probability, run_oskw,
                      run_oskw1, run_skw, run_skw1, run_skw2, run_skw3)
from .states import (MixedEnsemble, NodeState, make_basis_node_state,
                     make_even_uniform_node_state, make_ghz_node_state,
                     make_interpolated_node_state, make_random_node_state,
                     make_tilted_node_state, make_uniform_node_state,
                     make_w_node_state)
from .states import compose_walker, uniform_coin
from .walk import OSKW, SKW, IterationPlan, WalkSpec, evolve
from .oracle import (evolve_dense, verify_theorem_identities,
                     xor_covariance_deviation)

OUT_ENV = "QWSEARCH_OUT"

CSV_COLUMNS = ("experiment_id", "variant", "n", "tau", "seed", "f_c", "E_g",
               "C_f", "p_avg", "p_pred", "abs_dev", "leaked_weight", "wall_ms")


class ConfigError(ValueError):
    """Anything wrong with a config file or state spec; maps to exit 2."""


# ---------------------------------------------------------------------------
# state families

def _explicit_state(amps: str, n: Optional[int] = None,
                    config: NumericsConfig = DEFAULT) -> NodeState:
    """Comma-separated complex amplitudes, normalized; n, when given, must match."""
    vec = np.array([complex(a) for a in amps.split(",")])
    if vec.size < 4 or vec.size & (vec.size - 1):
        raise ConfigError("explicit amplitudes need a power-of-two "
                          f"length >= 4, got {vec.size}")
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ConfigError("explicit amplitudes are all zero")
    state = NodeState(int(vec.size).bit_length() - 1, vec / norm, config)
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


def _build_state(family: str, values: Mapping[str, object], seed: int,
                 config: NumericsConfig) -> NodeState:
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
        return make(**kwargs, config=config)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad {family} state: {exc}") from None


# ---------------------------------------------------------------------------
# config parsing

_KNOWN_KEYS = {
    "experiment.id", "run.variant", "run.n", "run.tau_rule", "run.tau",
    "run.seeds", "run.restarts", "run.measure_entanglement",
    "run.metric", "run.denominator", "state.family", "state.i", "state.t",
    "state.alpha", "state.s", "state.amps", "state.members",
    "output.csv", "output.summary",
}
_MEMBER_KEY = re.compile(r"^state\.member(\d+)\.(weight|spec)$")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment: what to run, on which states, where to write."""

    experiment_id: str
    variant: str
    n: int
    tau_rule: str = "optimal"
    tau: Optional[int] = None
    seeds: Tuple[int, ...] = (0,)
    restarts: Optional[int] = None
    measure_entanglement: bool = False
    metric: str = "vertex"
    denominator: str = "even-count"
    state_family: str = "uniform"
    family_params: Mapping[str, object] = field(default_factory=dict)
    members: Tuple[Tuple[float, str], ...] = ()
    output_csv: str = "results.csv"
    output_summary: str = "summary.json"
    numerics_overrides: Mapping[str, float] = field(default_factory=dict)
    raw: Mapping[str, str] = field(default_factory=dict)


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


def _float_list(key: str, value: str) -> List[float]:
    return [_to_float(key, part) for part in value.split(",") if part.strip() != ""]


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; raises ConfigError on any problem."""
    kv = _parse_kv_text(text)
    members: Dict[int, Dict[str, str]] = {}
    numerics: Dict[str, float] = {}
    for key, value in kv.items():
        if key in _KNOWN_KEYS:
            continue
        m = _MEMBER_KEY.match(key)
        if m:
            members.setdefault(int(m.group(1)), {})[m.group(2)] = value
            continue
        if key.startswith("numerics."):
            fname = key[len("numerics."):]
            if fname not in {f.name for f in dataclasses.fields(NumericsConfig)}:
                raise ConfigError(f"unknown numerics field {fname!r}")
            fkind = {f.name: f.type for f in dataclasses.fields(NumericsConfig)}[fname]
            numerics[fname] = (_to_int(key, value) if fkind == "int"
                               else _to_float(key, value))
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
        raise ConfigError(f"run.variant must be one of {VARIANTS}, got {variant!r}")
    if "run.n" not in kv:
        raise ConfigError("missing required key 'run.n'")
    n = _to_int("run.n", kv["run.n"])
    if n < 2:
        raise ConfigError(f"run.n must be >= 2, got {n}")

    tau_rule = kv.get("run.tau_rule", "optimal")
    if tau_rule not in ("optimal", "explicit"):
        raise ConfigError(f"run.tau_rule must be optimal or explicit, got {tau_rule!r}")
    tau = _to_int("run.tau", kv["run.tau"]) if "run.tau" in kv else None
    if tau_rule == "explicit" and tau is None:
        raise ConfigError("run.tau_rule = explicit requires run.tau")
    if tau is not None and tau < 0:
        raise ConfigError(f"run.tau must be >= 0, got {tau}")

    seeds = tuple(_to_int("run.seeds", s) for s in kv.get("run.seeds", "0").split(","))
    if not seeds:
        raise ConfigError("run.seeds must list at least one seed")

    family = kv.get("state.family", "uniform").lower()
    family = _FAMILY_NAMES.get(family, family)
    if family not in _FAMILIES:
        raise ConfigError(f"state.family must be one of {tuple(_FAMILIES)}, "
                          f"got {family!r}")

    params: Dict[str, object] = {}
    if "state.i" in kv:
        params["i"] = _to_int("state.i", kv["state.i"])
    for pkey, pname in (("state.t", "t"), ("state.alpha", "alpha"), ("state.s", "s")):
        if pkey in kv:
            vals = _float_list(pkey, kv[pkey])
            params[pname] = vals if len(vals) > 1 else vals[0]
    if "state.amps" in kv:
        params["amps"] = kv["state.amps"]
    t_vals = params.get("t")
    if t_vals is not None:
        for t in (t_vals if isinstance(t_vals, list) else [t_vals]):
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"state.t values must lie in [0, 1], got {t}")

    member_list: List[Tuple[float, str]] = []
    if family == "mixed_ensemble":
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
        if members:
            raise ConfigError(f"member keys beyond state.members={count}: "
                              f"{sorted(members)}")
    elif members or "state.members" in kv:
        raise ConfigError("state.member* keys require state.family = mixed_ensemble")

    metric = kv.get("run.metric", "vertex")
    if metric not in ("vertex", "gamma"):
        raise ConfigError(f"run.metric must be vertex or gamma, got {metric!r}")
    denominator = kv.get("run.denominator", "even-count")
    if denominator not in ("even-count", "vertex-count"):
        raise ConfigError("run.denominator must be even-count or vertex-count, "
                          f"got {denominator!r}")

    restarts = (_to_int("run.restarts", kv["run.restarts"])
                if "run.restarts" in kv else None)
    if restarts is not None and restarts < 1:
        raise ConfigError(f"run.restarts must be >= 1, got {restarts}")

    return ExperimentConfig(
        experiment_id=exp_id,
        variant=variant,
        n=n,
        tau_rule=tau_rule,
        tau=tau,
        seeds=seeds,
        restarts=restarts,
        measure_entanglement=_to_bool("run.measure_entanglement",
                                      kv.get("run.measure_entanglement", "false")),
        metric=metric,
        denominator=denominator,
        state_family=family,
        family_params=params,
        members=tuple(member_list),
        output_csv=kv.get("output.csv", "results.csv"),
        output_summary=kv.get("output.summary", "summary.json"),
        numerics_overrides=numerics,
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

_SPEC_PARSERS = {"n": _to_int, "i": _to_int, "seed": _to_int, "alpha": _to_float,
                 "t": _to_float, "s": _to_float, "amps": lambda key, value: value}


def parse_state_spec(spec: str, default_seed: int = 0,
                     config: NumericsConfig = DEFAULT) -> NodeState:
    """Build a state from 'family:key=value,key=value'.

    Families: uniform:n=4; basis:n=3,i=5; haar:n=8,seed=7; ghz:n=3[,alpha=...];
    w:n=3; interpolated:n=8,t=0.5; tilted:n=8,s=0.9; even_uniform:n=9;
    explicit:amps=0.6,0,0,0.8j (normalized for you).
    """
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
    values = {key: _SPEC_PARSERS[key](key, kv[key])
              for key in _FAMILIES[family].params if key in kv}
    return _build_state(family, values, default_seed, config)


def _config_state(cfg: ExperimentConfig, seed: int, sweep_value: Optional[float],
                  numerics: NumericsConfig):
    if cfg.state_family == "mixed_ensemble":
        pairs = tuple((w, parse_state_spec(s, seed, numerics))
                      for w, s in cfg.members)
        try:
            return MixedEnsemble(pairs, numerics)
        except ValueError as exc:
            raise ConfigError(f"bad mixed ensemble: {exc}") from None
    values = {key: sweep_value if isinstance(value, list) else value
              for key, value in cfg.family_params.items()}
    return _build_state(cfg.state_family, {**values, "n": cfg.n}, seed, numerics)


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
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_ENV, "")
    return os.path.join(base, path) if base else path


def write_csv_rows(path: str, rows: Sequence[Mapping[str, object]]) -> str:
    path = _resolve_out(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return path


def _deviation_bound(variant: str, n: int) -> float:
    # calibrated O(1/sqrt(N)) constants: 3 for the plain walk's vertex
    # count, 6 for the two-shift walk's
    if variant in ("oskw", "oskw1"):
        return 6.0 / math.sqrt(2.0 ** n)
    return 3.0 / math.sqrt(2.0 ** n)


def write_summary(path: str, config_echo: Mapping[str, str],
                  rows: Sequence[Mapping[str, object]],
                  extra: Mapping[str, object]) -> str:
    """Write the JSON summary; `extra` fields follow the standard ones."""
    path = _resolve_out(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    devs = [row["abs_dev"] for row in rows]
    bound = max(_deviation_bound(str(row["variant"]), int(row["n"]))
                for row in rows) if rows else None
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

def _dispatch_run(cfg: ExperimentConfig, state, seed: int, plan,
                  numerics: NumericsConfig) -> RunResult:
    # skw and oskw build their own start state; skw1 alone takes mixtures
    if isinstance(state, MixedEnsemble) and cfg.variant != "skw1":
        raise ConfigError(f"{cfg.variant} needs a pure state family")
    if cfg.variant == "skw":
        return run_skw(cfg.n, plan, metric=cfg.metric, config=numerics)
    if cfg.variant == "skw1":
        return run_skw1(state, plan, seed=seed,
                        measure_entanglement=cfg.measure_entanglement,
                        restarts=cfg.restarts, metric=cfg.metric,
                        config=numerics)
    if cfg.variant == "skw2":
        return run_skw2(state, plan, cfg.restarts, seed, metric=cfg.metric,
                        config=numerics)
    if cfg.variant == "skw3":
        return run_skw3(state, plan, metric=cfg.metric, config=numerics)
    if cfg.variant == "oskw":
        return run_oskw(cfg.n, plan, metric=cfg.metric, config=numerics)
    if cfg.variant == "oskw1":
        return run_oskw1(state, plan, seed=seed,
                         measure_entanglement=cfg.measure_entanglement,
                         restarts=cfg.restarts, metric=cfg.metric,
                         denominator=cfg.denominator, config=numerics)
    raise ConfigError(f"unknown variant {cfg.variant!r}")


def execute_config(cfg: ExperimentConfig) -> List[Dict[str, object]]:
    """All rows for one config, in deterministic config order."""
    try:
        numerics = DEFAULT.replace(**cfg.numerics_overrides)
    except TypeError as exc:
        raise ConfigError(f"bad numerics override: {exc}") from None
    plan = IterationPlan.explicit(cfg.tau) if cfg.tau_rule == "explicit" else None

    sweep_values: List[Optional[float]] = [None]
    sweep_lists = [v for v in cfg.family_params.values() if isinstance(v, list)]
    if len(sweep_lists) > 1:
        raise ConfigError("at most one family parameter may be a sweep list")
    if sweep_lists:
        sweep_values = list(sweep_lists[0])

    rows = []
    for value in sweep_values:
        for seed in cfg.seeds:
            state = None
            if cfg.variant not in ("skw", "oskw"):
                state = _config_state(cfg, seed, value, numerics)
            result = _dispatch_run(cfg, state, seed, plan, numerics)
            rows.append(result_row(cfg.experiment_id, result, seed))
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
    n = args.n
    if n < 2:
        raise ConfigError(f"--n must be >= 2, got {n}")
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    N = 1 << n
    rows: List[Dict[str, object]] = []

    for k, t in enumerate(np.linspace(0.0, 1.0, args.samples)):
        res = run_skw1(make_interpolated_node_state(n, float(t)), seed=args.seed)
        rows.append(result_row(f"fig4-skw1-{k:02d}", res, args.seed))
    for k, alpha in enumerate(np.linspace(0.0, math.pi / 4.0, args.samples)):
        res = run_skw2(make_ghz_node_state(n, float(alpha)),
                       restarts=args.restarts, seed=args.seed)
        rows.append(result_row(f"fig4-skw2-{k:02d}", res, args.seed))
    for k, s in enumerate(np.linspace(1.0 / N, 1.0, args.samples)):
        res = run_skw3(make_tilted_node_state(n, float(s)))
        rows.append(result_row(f"fig4-skw3-{k:02d}", res, args.seed))

    out_dir = os.path.abspath(args.out or os.environ.get(OUT_ENV, "") or ".")
    os.makedirs(out_dir, exist_ok=True)
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
        report = ResourceReport(
            f_c=float(_cell(row["f_c"])) if row["f_c"] is not None else None,
            C_f=float(_cell(row["C_f"])) if row["C_f"] is not None else None,
            E_g=float(_cell(row["E_g"])) if row["E_g"] is not None else None,
        )
        redone = predicted_probability(str(row["variant"]), report)
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
    state = parse_state_spec(args.spec, default_seed=args.seed)
    report = groverian_entanglement(state, restarts=args.restarts, seed=args.seed)
    print(f"state: {args.spec}")
    print(f"f_c = {report.f_c!r}")
    print(f"C_f = {report.C_f!r}")
    print(f"E_g = {report.E_g!r} (best product overlap {report.E_g_overlap!r}, "
          f"{'converged' if report.converged else 'NOT converged'}, "
          f"{report.restarts_used} restarts)")
    print(json.dumps({
        "f_c": report.f_c, "C_f": report.C_f, "E_g": report.E_g,
        "E_g_overlap": report.E_g_overlap, "converged": report.converged,
        "restarts_used": report.restarts_used,
    }))
    return 0


def _cmd_verify(args) -> int:
    checks: List[Tuple[str, bool, str]] = []
    max_n = args.max_n
    if max_n < 2:
        raise ConfigError(f"--max-n must be >= 2, got {max_n}")

    for n in range(2, min(max_n, DEFAULT.identity_check_guard_n) + 1):
        res = verify_theorem_identities(n, trials=args.trials, seed=args.seed)
        checks.append((f"measure identities n={n}", bool(res["all_passed"]),
                       f"worst layer dev {res['worst_layer_dev']:.3g}, "
                       f"worst enumeration dev {res['worst_pauli_dev']:.3g}"))

    for n in range(2, min(max_n, DEFAULT.dense_guard_n) + 1):
        for variant, target in ((SKW, 1), (OSKW, 3)):
            spec = WalkSpec(n=n, node_count=1 << n, target=target, variant=variant)
            plan = IterationPlan.explicit(min(20, 4 * n))
            start = compose_walker(uniform_coin(n),
                                   make_random_node_state(n, args.seed))
            free = evolve(start, spec, plan)
            dense = evolve_dense(start, spec, plan)
            dev = float(np.max(np.abs(free.amplitudes - dense.amplitudes)))
            checks.append((f"dense agreement n={n} {variant}", dev <= 1e-12,
                           f"max amplitude dev {dev:.3g}"))

    for n in range(2, min(max_n, 6) + 1):
        dev_s = xor_covariance_deviation(n, shift=(1 << n) - 1, target=0,
                                         variant=SKW)
        ok = dev_s <= 1e-12
        detail = f"plain dev {dev_s:.3g}"
        if n >= 3:
            dev_o = xor_covariance_deviation(n, shift=3, target=0, variant=OSKW)
            ok = ok and dev_o <= 1e-12
            detail += f", two-shift dev {dev_o:.3g}"
        checks.append((f"xor covariance n={n}", ok, detail))

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
