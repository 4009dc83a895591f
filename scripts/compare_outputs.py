#!/usr/bin/env python3
"""Compare qwsearch's outputs between two source trees.

    python3 scripts/compare_outputs.py PARENT CHANGE

Runs a fixed list of commands in both trees with `python -m qwsearch.cli`
(PYTHONPATH=<tree>/src), each in its own $QWSEARCH_OUT temp directory, and
compares the exit code, stdout and stderr (the temp path masked) and every
CSV cell and summary field but wall_ms and wall_ms_total. A stdout line
that is a JSON object (the `measures` line) is compared field by field like
a summary, and the text lines restating its numbers are compared with those
numbers masked. Prints one line per command (each changed stdout or stderr
line shown before and after, each changed work count such as `sweeps`
before -> after), the worst difference per CSV column or summary field whose
floats differ, then the number of differing float cells and the worst
difference. Exits 1 on any other mismatch.
"""
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = {"wall_ms", "wall_ms_total"}
# optimizer work counts: an optimizer change is meant to move them, so they
# are shown before and after, not counted as a mismatch
WORK = {"sweeps"}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _config(variant, n, *lines):
    return "\n".join([f"experiment.id = {variant}", f"run.variant = {variant}",
                      f"run.n = {n}", *lines, "output.csv = rows.csv",
                      "output.summary = summary.json", ""])


# (label, argv, config text written to cfg.txt or None)
COMMANDS = [
    ("sweep-fig4 n=9 seed=0", ["sweep-fig4", "--n", "9", "--samples", "11"], None),
    ("sweep-fig4 n=9 seed=3",
     ["sweep-fig4", "--n", "9", "--samples", "11", "--seed", "3"], None),
    ("oskw1 haar n=9", ["run", "cfg.txt"],
     _config("oskw1", 9, "run.seeds = 0, 1, 2, 3", "state.family = haar_random")),
    ("oskw1 haar n=8 gamma", ["run", "cfg.txt"],
     _config("oskw1", 8, "run.metric = gamma", "state.family = haar_random")),
    ("oskw1 ghz alpha tau=9", ["run", "cfg.txt"],
     _config("oskw1", 8, "run.tau = 9", "state.family = ghz",
             "state.alpha = 0, 0.3, 0.6")),
    ("oskw n=8", ["run", "cfg.txt"], _config("oskw", 8)),
    ("oskw n=9 gamma", ["run", "cfg.txt"], _config("oskw", 9, "run.metric = gamma")),
    ("skw1 haar n=10", ["run", "cfg.txt"],
     _config("skw1", 10, "run.seeds = 0, 1", "state.family = haar_random")),
    ("skw1 mixture", ["run", "cfg.txt"],
     _config("skw1", 6, "state.family = mixed_ensemble", "state.members = 2",
             "state.member1.weight = 0.3", "state.member1.spec = ghz:n=6",
             "state.member2.weight = 0.7", "state.member2.spec = haar:n=6,seed=4")),
    ("skw2 haar", ["run", "cfg.txt"],
     _config("skw2", 7, "run.seeds = 0, 1, 2", "state.family = haar_random")),
    ("skw2 haar n=8 x12", ["run", "cfg.txt"],
     _config("skw2", 8, "run.seeds = " + ", ".join(map(str, range(12))),
             "state.family = haar_random")),
    ("skw3 tilted gamma", ["run", "cfg.txt"],
     _config("skw3", 8, "run.metric = gamma", "state.family = tilted",
             "state.s = 0.1, 0.5, 0.9")),
    ("skw", ["run", "cfg.txt"], _config("skw", 8)),
    ("skw3 basis i=5", ["run", "cfg.txt"],
     _config("skw3", 6, "state.family = basis", "state.i = 5")),
    ("skw1 w", ["run", "cfg.txt"], _config("skw1", 7, "state.family = w")),
    ("skw1 interpolated t", ["run", "cfg.txt"],
     _config("skw1", 8, "run.seeds = 0, 1", "state.family = interpolated",
             "state.t = 0, 0.35, 1")),
    ("skw1 explicit", ["run", "cfg.txt"],
     _config("skw1", 2, "state.family = explicit_amplitudes",
             "state.amps = 0.6, 0, 0, 0.8j")),
    ("measures haar", ["measures", "haar:n=6,seed=2"], None),
    ("measures haar n=8 s15", ["measures", "haar:n=8,seed=15"], None),
    ("missing config", ["run", "absent.txt"], None),
    # refusals
    ("measures tilted s=2", ["measures", "tilted:n=3,s=2"], None),
    ("measures ghz beta", ["measures", "ghz:n=3,beta=2"], None),
    ("measures explicit 3", ["measures", "explicit:amps=1,0,0"], None),
    ("state.t = 1.5", ["run", "cfg.txt"],
     _config("skw1", 4, "state.family = interpolated", "state.t = 1.5")),
    ("state.s sweep to 2", ["run", "cfg.txt"],
     _config("skw3", 4, "run.seeds = 0, 1", "state.family = tilted",
             "state.s = 0.5, 0.7, 2")),
    ("unknown family", ["run", "cfg.txt"],
     _config("skw1", 4, "state.family = hologram")),
]


def run(tree, argv, config):
    """Run one command in a tree; returns (exit code, stdout, stderr, files)
    with the temp path masked and each output file's fields flattened."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "cfg.txt").write_text(config, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tree, "src")), "QWSEARCH_OUT": tmp}
        proc = subprocess.run([sys.executable, "-m", "qwsearch.cli", *argv], cwd=tmp,
                              env=env, capture_output=True, text=True)
        stdout, fields = _split_stdout(proc.stdout.replace(tmp, "<out>"))
        files = {"stdout": fields} if fields else {}
        for path in sorted(Path(tmp).iterdir()):
            if path.suffix == ".csv":
                with open(path, newline="", encoding="utf-8") as fh:
                    header, *rows = list(csv.reader(fh))
                files[path.name] = {(k, col): cell for k, row in enumerate(rows)
                                    for col, cell in zip(header, row)}
                files[path.name]["header"] = header
            elif path.suffix == ".json":
                files[path.name] = _flatten(json.loads(path.read_text()))
        return proc.returncode, stdout, proc.stderr.replace(tmp, "<out>"), files


def _split_stdout(text):
    """stdout without its JSON object lines, each number that those lines
    also hold masked as #, and the JSON lines' fields under ("stdout", ...)."""
    fields, plain = {}, []
    for line in text.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            value = None
        if isinstance(value, dict):
            fields.update(_flatten(value, ("stdout",)))
        else:
            plain.append(line)
    shown = {json.dumps(v) for v in fields.values()
             if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return "\n".join(NUMBER.sub(lambda m: "#" if m.group() in shown else m.group(), line)
                     for line in plain), fields


def _flatten(value, key=()):
    if isinstance(value, dict):
        return {k: v for name, item in value.items()
                for k, v in _flatten(item, key + (name,)).items()}
    return {key: value}


def _float_gap(a, b):
    """|a - b| when a and b are unequal floats (in text or not), else None."""
    if isinstance(a, str) and isinstance(b, str):
        try:
            int(a), int(b)
            return None
        except ValueError:
            pass
        try:
            a, b = float(a), float(b)
        except ValueError:
            return None
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b)
    return None


def compare(parent, change, commands=COMMANDS):
    """Lines to print, float cells that differ, the worst gap, and mismatches."""
    lines, floats, worst, mismatches = [], 0, 0.0, 0
    columns = {}   # CSV column or dotted summary field -> (cells differing, worst)
    for label, argv, config in commands:
        old, new = run(parent, argv, config), run(change, argv, config)
        problems = ["exit code"] if old[0] != new[0] else []
        problems += [f"{what} {a!r} vs {b!r}"   # each changed line, before and after
                     for what, i in (("stdout", 1), ("stderr", 2))
                     for a, b in zip(old[i].splitlines(), new[i].splitlines()) if a != b]
        problems += [f"{what} line count" for what, i in (("stdout", 1), ("stderr", 2))
                     if len(old[i].splitlines()) != len(new[i].splitlines())]
        if sorted(old[3]) != sorted(new[3]):
            problems.append(f"files {sorted(old[3])} vs {sorted(new[3])}")
        cells = gaps = 0
        work = []
        for name in sorted(set(old[3]) & set(new[3])):
            a_fields, b_fields = old[3][name], new[3][name]
            if a_fields.keys() != b_fields.keys():
                problems.append(f"{name} fields")
            for key in a_fields.keys() & b_fields.keys():
                field = key[-1] if isinstance(key, tuple) else key
                a, b = a_fields[key], b_fields[key]
                cells += 1
                if field in SKIPPED or a == b:
                    continue
                if field in WORK:
                    work.append(f"{field} {a!r} -> {b!r}")
                    continue
                gap = _float_gap(a, b)
                if gap is None:
                    problems.append(f"{name} {key}: {a!r} vs {b!r}")
                else:
                    gaps, worst = gaps + 1, max(worst, gap)
                    column = field if name.endswith(".csv") else ".".join(key)
                    count, most = columns.get(column, (0, 0.0))
                    columns[column] = (count + 1, max(most, gap))
        floats += gaps
        mismatches += bool(problems)
        status = "; ".join(problems) if problems else "same"
        status += "".join(f"; {change}" for change in sorted(work))
        lines.append(f"{label:<24} exit {old[0]}  {cells} fields  "
                     f"{gaps} float cells differ  {status}")
    if columns:
        lines.append("worst difference per column:")
        lines += [f"  {column:<24} {count:>4} cells  worst {most!r}"
                  for column, (count, most) in sorted(columns.items())]
    return lines, floats, worst, mismatches


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    lines, floats, worst, mismatches = compare(sys.argv[1], sys.argv[2])
    print("\n".join(lines))
    print(f"{floats} float cells differ, worst {worst!r}; {mismatches} commands "
          "with other differences")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
