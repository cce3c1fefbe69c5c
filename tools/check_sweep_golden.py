#!/usr/bin/env python3
"""Diff a sweep JSON against a committed golden, ignoring wall time.

A sweep JSON is {"field_classes": {CLASS: [FIELD, ...]}, "rows": [...]}; the
sweep writes the class map from the result-field table in
src/cloud/report.cpp, so this checker keeps no field names. A field in no
class is virtual and must match the golden EXACTLY: identical configuration
=> identical virtual timeline, so any drift is a behavioural regression
hiding behind wall-clock noise. The classes:

  wall            host wall-clock derived.
  solver_work     differs between the incremental and full-solve regimes.
  implementation  engine bookkeeping (events, settle epochs, frames) and
                  the shard fields, which print only when a run asks for
                  several workers (--shards=N, N != 1).

The golden's and the fresh run's field_classes must be equal, so
reclassifying a field is a reviewed diff under tests/golden/. Rows are
matched by their label (FIGURE/APPROACH/X, cloud/scenarios.h); a label
missing from either side, or repeated within one, fails by name.

Usage: check_sweep_golden.py [MODE] <golden.json> <fresh.json>
       check_sweep_golden.py [MODE] <golden.json> --run NAME BINARY [ARG...]

The --run form runs BINARY with its arguments, writes its stdout to
golden/NAME.json under the working directory (the `golden` ctests run
from the build tree, so CI uploads build/golden/), and diffs that; a
non-zero exit of the binary fails the check. The exit status is 0 on a
match, 1 with a per-field diff otherwise.

MODE picks the classes stripped: none strips wall; --ignore-solver-work
also strips solver_work (a --full-solve run against an incremental
golden); --shards also strips implementation (a shards=N run against a
shards=1 golden, which has no shard fields). Every mode compares the remaining fields exactly: the
slices are the same at any worker count, so a shards=N run reproduces the
shards=1 run to the last bit.
"""
import json
import os
import subprocess
import sys

MODE_CLASSES = {None: {"wall"}, "--ignore-solver-work": {"wall", "solver_work"},
                "--shards": {"wall", "implementation"}}


def rows_by_label(doc, path, ignored):
    """The document's rows keyed by label, minus the ignored fields; None
    after naming every repeated label."""
    rows, repeated = {}, False
    for row in doc["rows"]:
        if row["label"] in rows:
            print(f"{path}: {row['label']}: duplicated label")
            repeated = True
        rows[row["label"]] = {k: v for k, v in row.items() if k not in ignored}
    return None if repeated else rows


def check_pair(golden_path, fresh_path, mode) -> bool:
    with open(golden_path) as f:
        golden = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    if golden["field_classes"] != fresh["field_classes"]:
        print(f"{fresh_path}: field_classes differ: golden {golden['field_classes']!r}"
              f" != fresh {fresh['field_classes']!r}")
        return False
    ignored = {name for c in MODE_CLASSES[mode] for name in golden["field_classes"][c]}
    golden_rows, fresh_rows = (rows_by_label(doc, path, ignored)
                               for doc, path in ((golden, golden_path), (fresh, fresh_path)))
    if golden_rows is None or fresh_rows is None:
        return False
    ok = True
    for label in dict.fromkeys([*golden_rows, *fresh_rows]):
        g, s = golden_rows.get(label), fresh_rows.get(label)
        if g is None or s is None:
            print(f"{fresh_path}: {label}: "
                  + ("not in the golden" if g is None else "missing (the golden has this row)"))
            ok = False
            continue
        for key in sorted(set(g) | set(s)):
            if g.get(key) != s.get(key):
                print(f"{fresh_path}: {label} {key}: "
                      f"golden {g.get(key)!r} != fresh {s.get(key)!r}")
                ok = False
    if ok:
        print(f"OK: {fresh_path} matches {golden_path} in every virtual-time field")
    return ok


def run_leg(name, command):
    """Run one sweep leg, saving its JSON as golden/NAME.json; None if it failed."""
    fresh_path = os.path.join("golden", name + ".json")
    os.makedirs(os.path.dirname(fresh_path), exist_ok=True)
    with open(fresh_path, "w") as out:
        status = subprocess.run(command, stdout=out).returncode
    if status != 0:
        print(f"{name}: {' '.join(command)} exited with status {status}")
        return None
    return fresh_path


def main() -> int:
    args = sys.argv[1:]
    mode = args[0] if args and args[0] in MODE_CLASSES else None
    if mode:
        args = args[1:]
    if len(args) >= 4 and args[1] == "--run":
        fresh_path = run_leg(args[2], args[3:])
        if fresh_path is None:
            return 1
    elif len(args) == 2:
        fresh_path = args[1]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if check_pair(args[0], fresh_path, mode):
        return 0
    print("virtual-time drift detected: if this change is INTENDED to alter "
          "simulated behaviour, regenerate the goldens under tests/golden/")
    return 1


if __name__ == "__main__":
    sys.exit(main())
