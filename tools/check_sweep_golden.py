#!/usr/bin/env python3
"""Diff a sweep JSON against a committed golden, ignoring wall time.

Every virtual-time field (events, sim_s, traffic, migration times, solver
counters, frame counters) must match the golden EXACTLY: the engine's
determinism contract says identical configuration => identical virtual
timeline, so any drift here is a behavioural regression hiding behind
wall-clock noise. Wall-derived fields (wall_ms, events_per_sec,
flows_per_sec) are host-dependent and excluded.

Usage: check_sweep_golden.py [MODE] <golden.json> <fresh.json>
       check_sweep_golden.py [MODE] <golden.json> --run NAME BINARY [ARG...]

The --run form runs BINARY with its arguments, writes its stdout to
golden/NAME.json under the working directory (the `golden` ctests run
from the build tree, so CI uploads build/golden/), and diffs that; a
non-zero exit of the binary fails the check. The exit status is 0 on a
match, 1 with a per-field diff otherwise.

MODE is empty (exact) or one of:

--ignore-solver-work additionally excludes the solver-work counters
(solver_components, flows_resolved, flows_resolved_per_epoch, escalations).
Those legitimately differ between the incremental and full-solve regimes
(the sweeps' --full-solve) while every virtual-time field stays
byte-identical — use the flag when gating a full-solve run against an
incremental golden.

--shards additionally excludes the scheduler-implementation counters
(events, solver_epochs, flows_resolved_per_epoch, coroutine_frames,
frames_reused, frame_heap_allocs) plus the "shards" and
"shard_fallback_reason" row fields, for gating a shards=N sweep against a
shards=1 golden. A sharded run processes slightly fewer scheduler events
than the single run (a finished slice stops stepping at its own last
needed event, while the global loop drains residual timers of
already-finished VMs until the last slice finishes), splits coroutine
frames across per-shard thread-local pools, and cannot share a settle
epoch between components living on different shards (so same-timestamp
churn that one global epoch would batch costs one epoch per shard — more
epochs, same work). Those counters measure the engine, not the simulated
system. Every simulated quantity — sim_s, flows, solver WORK counters
(components water-filled, flows resolved, escalations), migration times,
traffic — must still match EXACTLY: that is the sharding determinism
contract.
"""
import json
import os
import subprocess
import sys

WALL_FIELDS = {"wall_ms", "events_per_sec", "flows_per_sec"}
SOLVER_WORK_FIELDS = {"solver_components", "flows_resolved",
                      "flows_resolved_per_epoch", "escalations"}
SCHEDULER_FIELDS = {"events", "solver_epochs", "flows_resolved_per_epoch",
                    "coroutine_frames", "frames_reused", "frame_heap_allocs",
                    "shards", "shard_fallback_reason"}


def strip(rows, ignored):
    return [{k: v for k, v in row.items() if k not in ignored} for row in rows]


def check_pair(golden_path, fresh_path, ignored) -> bool:
    with open(golden_path) as f:
        golden = strip(json.load(f), ignored)
    with open(fresh_path) as f:
        fresh = strip(json.load(f), ignored)
    ok = True
    if len(golden) != len(fresh):
        print(f"{fresh_path}: row count differs: golden {len(golden)} vs fresh {len(fresh)}")
        ok = False
    for g, s in zip(golden, fresh):
        scale = g.get("concurrent_migrations", "?")
        for key in sorted(set(g) | set(s)):
            if g.get(key) != s.get(key):
                print(f"{fresh_path}: n={scale} {key}: "
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
    ignored = set(WALL_FIELDS)
    if args and args[0] == "--ignore-solver-work":
        ignored |= SOLVER_WORK_FIELDS
        args = args[1:]
    elif args and args[0] == "--shards":
        ignored |= SCHEDULER_FIELDS
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
    if check_pair(args[0], fresh_path, ignored):
        return 0
    print("virtual-time drift detected: if this change is INTENDED to alter "
          "simulated behaviour, regenerate the goldens under tests/golden/")
    return 1


if __name__ == "__main__":
    sys.exit(main())
