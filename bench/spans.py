"""Spans around the calls the CLI and the runners make into each module.

The wrappers are installed on the names as the calling module sees them
(`qwsearch.cli.run_skw1`, `qwsearch.runners.evolve`, ...), so a call from
inside a module to its own functions stays part of its caller's span.
Names a later version of the program no longer has are skipped, and their
metrics read 0.

A span is (command, name, start, end, parent). Spans stay in memory and are
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
of one command add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List

CALL_SITES = {
    "qwsearch.cli": {
        "load_config": "cli.parse",
        "parse_config": "cli.parse",
        "parse_state_spec": "cli.parse",
        "write_csv_rows": "cli.write",
        "write_summary": "cli.write",
        "run_skw": "runners.run",
        "run_skw1": "runners.run",
        "run_skw2": "runners.run",
        "run_skw3": "runners.run",
        "run_oskw": "runners.run",
        "run_oskw1": "runners.run",
        "make_uniform_node_state": "states.build",
        "make_basis_node_state": "states.build",
        "make_random_node_state": "states.build",
        "make_ghz_node_state": "states.build",
        "make_w_node_state": "states.build",
        "make_interpolated_node_state": "states.build",
        "make_tilted_node_state": "states.build",
        "make_even_uniform_node_state": "states.build",
    },
    "qwsearch.runners": {
        "make_uniform_node_state": "states.build",
        "make_even_uniform_node_state": "states.build",
        "compose_walker": "states.compose",
        "apply_local_layer": "states.layer",
        "WalkSpec": "walk.spec",
        "evolve": "walk.evolve",
        "success_probability": "walk.success",
        "project_even_parity": "walk.project",
        "groverian_entanglement": "measures.hopm",
        "optimize_local_layer_detailed": "measures.hopm",
        "enumerate_pauli_layers": "measures.pauli_enum",
        "coherence_fraction": "measures.closed_form",
        "even_coherence_fraction": "measures.closed_form",
        "fidelity_coherence": "measures.closed_form",
        "best_pauli_basis": "measures.closed_form",
    },
}
ROOT = "cli.main"

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.parse_s", "s"), ("cli.write_s", "s"), ("cli.write_bytes", "B"),
    ("cli.self_s", "s"),
    ("states.build_s", "s"), ("states.build_calls", "count"),
    ("states.compose_s", "s"), ("states.compose_calls", "count"),
    ("states.compose_per_row", "count/row"),
    ("states.layer_s", "s"), ("states.layer_calls", "count"),
    ("walk.evolve_s", "s"), ("walk.evolve_calls", "count"),
    ("walk.steps", "count"), ("walk.step_us", "us"),
    ("walk.bytes_computed", "B"),
    ("walk.spec_s", "s"), ("walk.spec_calls", "count"),
    ("walk.success_s", "s"), ("walk.project_s", "s"),
    ("measures.hopm_s", "s"), ("measures.hopm_calls", "count"),
    ("measures.hopm_restarts", "count"),
    ("measures.pauli_enum_s", "s"), ("measures.pauli_enum_calls", "count"),
    ("measures.pauli_leaves", "count"),
    ("measures.closed_form_s", "s"),
    ("runners.self_s", "s"), ("runners.rows", "count"),
    ("runners.targets", "count"), ("runners.target_us", "us"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _counts(name, args, kwargs, out) -> Dict[str, float]:
    """Work counted at the boundary, from the call's arguments and result."""
    if name == "walk.evolve":
        spec, plan = _arg(args, kwargs, 1, "spec"), _arg(args, kwargs, 2, "plan")
        two_shift = spec.variant != "skw"
        steps = plan.tau // 2 if two_shift else plan.tau
        rounds = steps * (2 if two_shift else 1)
        return {"steps": steps, "bytes": rounds * spec.n * spec.node_count * 16}
    if name == "measures.hopm":
        report = out[2] if isinstance(out, tuple) else out
        return {"restarts": report.restarts_used or 0}
    if name == "measures.pauli_enum":
        return {"leaves": 3 ** _arg(args, kwargs, 0, "state").n}
    if name == "runners.run":
        return {"rows": 1, "targets": len(out.per_target)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []     # [command, name, start, end, parent, counts]
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self.command = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.command, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] = _counts(name, args, kwargs, out)
            return out
        return traced

    def run(self, command: int, fn, *args):
        """Call fn(*args) as the root span of one command, wrappers installed."""
        self.command = command
        for modname, names in CALL_SITES.items():
            mod = importlib.import_module(modname)
            for attr, span in names.items():
                orig = getattr(mod, attr, None)
                if orig is not None:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, self._wrap(span, orig))
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            while self._saved:
                mod, attr, orig = self._saved.pop()
                setattr(mod, attr, orig)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (_, name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def totals(self):
        """Calls, inclusive time and summed counts per span name."""
        calls, incl = defaultdict(int), defaultdict(float)
        counts = defaultdict(float)
        for _, name, t0, t1, _, extra in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value
        return calls, incl, counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["command", "name", "start", "end", "parent"],
                       "spans": [s[:5] for s in self.spans]}, fh)


def layer_metrics(tracer: Tracer, commands: int, traced_wall: float,
                  untraced_wall: float, write_bytes: int) -> Dict[str, float]:
    """Per-layer metrics per traced command; `*_s` are self times."""
    own = tracer.self_times()
    calls, incl, counts = tracer.totals()
    c = float(commands)
    rows = counts["runners.run.rows"]
    steps = counts["walk.evolve.steps"]
    targets = counts["runners.run.targets"]
    m = {
        "cli.parse_s": own["cli.parse"] / c,
        "cli.write_s": own["cli.write"] / c,
        "cli.write_bytes": write_bytes / c,
        "cli.self_s": own[ROOT] / c,
        "states.build_s": own["states.build"] / c,
        "states.build_calls": calls["states.build"] / c,
        "states.compose_s": own["states.compose"] / c,
        "states.compose_calls": calls["states.compose"] / c,
        "states.compose_per_row": calls["states.compose"] / rows if rows else 0.0,
        "states.layer_s": own["states.layer"] / c,
        "states.layer_calls": calls["states.layer"] / c,
        "walk.evolve_s": own["walk.evolve"] / c,
        "walk.evolve_calls": calls["walk.evolve"] / c,
        "walk.steps": steps / c,
        "walk.step_us": own["walk.evolve"] / steps * 1e6 if steps else 0.0,
        "walk.bytes_computed": counts["walk.evolve.bytes"] / c,
        "walk.spec_s": own["walk.spec"] / c,
        "walk.spec_calls": calls["walk.spec"] / c,
        "walk.success_s": own["walk.success"] / c,
        "walk.project_s": own["walk.project"] / c,
        "measures.hopm_s": own["measures.hopm"] / c,
        "measures.hopm_calls": calls["measures.hopm"] / c,
        "measures.hopm_restarts": counts["measures.hopm.restarts"] / c,
        "measures.pauli_enum_s": own["measures.pauli_enum"] / c,
        "measures.pauli_enum_calls": calls["measures.pauli_enum"] / c,
        "measures.pauli_leaves": counts["measures.pauli_enum.leaves"] / c,
        "measures.closed_form_s": own["measures.closed_form"] / c,
        "runners.self_s": own["runners.run"] / c,
        "runners.rows": rows / c,
        "runners.targets": targets / c,
        "runners.target_us": incl["runners.run"] / targets * 1e6 if targets else 0.0,
        "trace.wall_s": traced_wall / c,
        "trace.overhead_s": (traced_wall - untraced_wall) / c,
    }
    return m
