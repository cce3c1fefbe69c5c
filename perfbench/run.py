#!/usr/bin/env python3
"""hybridmig benchmark: one experiment point per named workload, timed from outside.

Usage (from the repository root):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-reference [--n N] [--out PATH]

--trace 0 measures the end-to-end metrics (tracing off): it repeats the
workload, one process per repetition, until --seconds have passed and
reports medians. --trace 1 runs the workload a few times for its counts,
runs the per-layer probes on the workload's shape, writes every span as a
Chrome trace-event file (open it in ui.perfetto.dev) and reports the
per-layer metrics. Both check every repetition's simulated outputs against
perfbench/reference.json. The last line of stdout is the result JSON.

Workload names, metric names and units come from BENCHMARK.json; the runner
(perfbench/hmbench.cpp) is built into .bench_build/ on first use.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REL_TOL = 1e-9
# --seed picks one of SEED_FAMILY recorded experiment seeds, so every input
# the benchmark can run has a recorded reference.
SEED_BASE, SEED_FAMILY = 42, 16
# Workloads that replay another workload's inputs (and must reproduce its
# simulated outputs exactly, up to REL_TOL).
SAME_INPUTS = {"fleet-stagger-nb-s4": "fleet-stagger-nb"}
# Default fleet size and shard count per workload (hmbench.cpp holds the
# rest of each workload's inputs).
DEFAULTS = {"fleet-stagger-nb": (256, 1), "fleet-burst-oversub": (256, 1),
            "service-churn": (128, 1), "fleet-stagger-nb-s4": (256, 4)}
# End-to-end budget guard: the whole run must stay far below 180 s.
MAX_RUN_S = 150.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure and build hmbench from the checkout's sources."""
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"source tree incomplete: {need} missing under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "--target", "hmbench", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "hmbench")


def hmbench(binary, *args):
    """Run hmbench once; returns (parsed JSON, launch time)."""
    t = time.perf_counter()
    p = subprocess.run([binary, *map(str, args)], capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"hmbench {' '.join(map(str, args))} failed: {p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1]), t


def source_digest():
    """Content hash of the library sources and build files the benchmark built."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def host_facts(binary):
    info, _ = hmbench(binary, "info")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "commit": commit,
        "source_digest": source_digest(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- output check ---------------------------------------------------------------

def compare_outputs(got, want):
    """Mismatching keys between a run's simulated outputs and the reference."""
    bad = sorted(set(got) ^ set(want))
    for k in set(got) & set(want):
        a, b = got[k], want[k]
        if a is None or b is None:  # a non-finite output
            if a is not b:
                bad.append(k)
        elif abs(a - b) > REL_TOL * max(abs(a), abs(b)) and abs(a - b) > 1e-12:
            bad.append(k)
    return bad


def reference_for(refs, workload, n, exp_seed):
    inputs = SAME_INPUTS.get(workload, workload)
    entry = refs.get("workloads", {}).get(inputs, {}).get(str(n), {}).get(str(exp_seed))
    if entry is None:
        fail(f"no recorded reference for {inputs} n={n} seed={exp_seed}; "
             "run --record-reference")
    return entry


class Checker:
    """Checks each repetition and accumulates attempted/failed operations."""

    def __init__(self, refs, workload, n, exp_seed):
        self.want = reference_for(refs, workload, n, exp_seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, rep):
        self.attempted += int(rep["attempted"])
        bad = compare_outputs(rep["outputs"], self.want)
        if bad or rep["error"]:
            self.mismatches.append(bad or ["error: " + rep["error"]])
            self.failed += int(rep["attempted"])
        else:
            self.failed += int(rep["failed"])

    @property
    def correct(self):
        return not self.mismatches


# --- trace file --------------------------------------------------------------------

class Trace:
    """Chrome trace-event JSON: one track per layer probe plus the run track."""

    def __init__(self, t0):
        self.t0 = t0
        self.events = []
        self.tracks = {}

    def add(self, spans, launched):
        offset_us = (launched - self.t0) * 1e6
        for s in spans:
            tid = self.tracks.setdefault(s["track"], len(self.tracks) + 1)
            self.events.append({"name": s["name"], "cat": s["track"], "ph": "X", "pid": 1,
                                "tid": tid, "ts": offset_us + s["start_us"],
                                "dur": s["dur_us"]})

    def write(self, path, meta):
        names = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                  "args": {"name": track}} for track, tid in self.tracks.items()]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": names + self.events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)


# --- modes ---------------------------------------------------------------------------

def run_e2e(binary, args, checker, trace):
    start = time.perf_counter()
    reps = []
    warm, launched = hmbench(binary, "run", "--workload", args.workload, "--seed",
                             args.exp_seed, "--n", args.n)
    checker.check(warm)
    trace.add(warm["spans"], launched)
    while True:
        rep, launched = hmbench(binary, "run", "--workload", args.workload, "--seed",
                                args.exp_seed, "--n", args.n)
        checker.check(rep)
        trace.add(rep["spans"], launched)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / (len(reps) + 1)
        if len(reps) >= 3 and (elapsed + per_rep > args.seconds or elapsed > MAX_RUN_S):
            break
    return {
        "run_wall_s": statistics.median([r["run_wall_s"] for r in reps]),
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }, len(reps)


def runs(binary, args, checker, trace, count, n=None, shards=None):
    """`count` runs of the workload's inputs (checked at the workload's size)."""
    reps = []
    for _ in range(count):
        extra = ["--shards", shards] if shards else []
        rep, launched = hmbench(binary, "run", "--workload", args.workload, "--seed",
                                args.exp_seed, "--n", n or args.n, *extra)
        if n is None or n == args.n:
            checker.check(rep)
        trace.add(rep["spans"], launched)
        reps.append(rep)
    return reps


def stable_counts(counts):
    """Counts that repeat exactly for one input. Frame heap allocations do
    not under sharding: a worker thread that runs two shards reuses its
    thread-local frame pool."""
    return {k: v for k, v in counts.items() if k != "sim.frame_heap_allocs"}


def walls(reps):
    return [r["run_wall_s"] for r in reps]


def run_traced(binary, args, checker, trace):
    reps = runs(binary, args, checker, trace, 3)
    counts = reps[-1]["counts"]
    for r in reps[:-1]:
        if stable_counts(r["counts"]) != stable_counts(counts):
            fail("counts differ between repetitions of the same input")
    wall = statistics.median(walls(reps))
    cpu = statistics.median([r["cpu_s"] for r in reps])
    probe, launched = hmbench(binary, "probe", "--workload", args.workload, "--seed",
                              args.exp_seed, "--n", args.n, "--in-flight",
                              max(1.0, reps[-1]["mean_in_flight"]))
    trace.add(probe["spans"], launched)
    p = probe["metrics"]
    m = dict(counts)
    epochs = max(1.0, counts["net.settle_epochs"])
    m["net.flows_resolved_per_epoch"] = counts["net.flows_resolved"] / epochs
    del m["net.flows_resolved"]
    for k in ("sim.fast_ns", "sim.timer_ns", "sim.shard_round_us", "net.settle_us",
              "net.settle_growth", "net.escalated_epoch_us", "storage.chunk_write_ns",
              "storage.chunk_read_ns", "storage.cache_write_ns", "vm.dirty_round_us",
              "core.push_ns_per_chunk", "cloud.plan_ms"):
        m[k] = p[k]
    m["sim.ns_per_event"] = wall * 1e9 / max(1.0, counts["sim.events"])

    # Fleet-size growth of the per-event cost: this input at n vs n/16.
    small = runs(binary, args, checker, trace, 3, n=max(2, args.n // 16))
    m["sim.ns_per_event_growth"] = m["sim.ns_per_event"] / (
        statistics.median(walls(small)) * 1e9 / max(1.0, small[0]["counts"]["sim.events"]))

    # Shard payoff on the inputs it applies to; 0 = not measured here.
    m["sim.shard_speedup"] = 0.0
    m["sim.coupled_speedup"] = m["sim.coupled_speedup_q1"] = m["sim.coupled_speedup_q3"] = 0.0
    if SAME_INPUTS.get(args.workload, args.workload) == "fleet-stagger-nb":
        other = statistics.median(walls(runs(binary, args, checker, trace, 3,
                                  shards=4 if args.shards == 1 else 1)))
        one, four = (wall, other) if args.shards == 1 else (other, wall)
        m["sim.shard_speedup"] = one / four
    elif args.workload == "fleet-burst-oversub":
        four = walls(runs(binary, args, checker, trace, 4, shards=4))
        ones = walls(reps + runs(binary, args, checker, trace, 1))
        ratios = [a / b for a, b in zip(ones, four)]
        q1, q2, q3 = statistics.quantiles(ratios, n=4)
        m["sim.coupled_speedup"], m["sim.coupled_speedup_q1"], m["sim.coupled_speedup_q3"] = (
            q2, q1, q3)

    # Computed attribution estimates: probe cost x the run's matching count,
    # over the run's host time (CPU time on the sharded workload, whose shard
    # work overlaps in wall time).
    denom = cpu if reps[-1]["shards_used"] > 1 else wall
    chunk_bytes = 256 * 1024  # every workload's image chunk (hmbench.cpp base_config)
    guest_chunk_writes = counts["workloads.bytes_written_gb"] * 1e9 / chunk_bytes
    m["net.est_share"] = p["net.settle_us"] * 1e-6 * counts["net.settle_epochs"] / denom
    m["core.est_share"] = p["core.push_ns_per_chunk"] * 1e-9 * counts["core.chunks_pushed"] / denom
    m["storage.est_share"] = p["storage.cache_write_ns"] * 1e-9 * guest_chunk_writes / denom
    m["unattributed_share"] = 1.0 - (m["net.est_share"] + m["core.est_share"] +
                                     m["storage.est_share"])
    m["traced_run_wall_s"] = wall
    m["failed_frac"] = checker.failed / max(1, checker.attempted)
    return m, len(reps)


def record_reference(binary, n_override, out):
    spec, _ = load_spec()
    refs = {"host": host_facts(binary), "rel_tol": REL_TOL, "workloads": {}}
    if os.path.exists(out):
        with open(out) as fh:
            old = json.load(fh)
        refs["workloads"] = old.get("workloads", {})
    for w in spec["workloads"]:
        name = w["name"]
        if name in SAME_INPUTS:
            continue
        n = n_override or DEFAULTS[name][0]
        table = refs["workloads"].setdefault(name, {}).setdefault(str(n), {})
        for k in range(SEED_FAMILY):
            rep, _ = hmbench(binary, "run", "--workload", name, "--seed", SEED_BASE + k, "--n", n)
            # Smoke sizes may reject requests (too few destinations for the
            # churn); the benchmark's own sizes must not fail any operation.
            if rep["error"] or (not n_override and int(rep["failed"]) != 0):
                fail(f"{name} seed {SEED_BASE + k}: failed operations while recording")
            table[str(SEED_BASE + k)] = rep["outputs"]
            print(f"recorded {name} n={n} seed={SEED_BASE + k}", file=sys.stderr)
    with open(out, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=0, help="fleet size override (smoke runs)")
    ap.add_argument("--reference", default=REFERENCE, help="reference outputs file")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--out", default=REFERENCE, help="where --record-reference writes")
    args = ap.parse_args()

    spec, units = load_spec()
    binary = build()
    if args.record_reference:
        record_reference(binary, args.n, args.out)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in DEFAULTS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    default_n, args.shards = DEFAULTS[args.workload]
    args.n = args.n or default_n
    args.exp_seed = SEED_BASE + args.seed % SEED_FAMILY
    with open(args.reference) as fh:
        refs = json.load(fh)

    t0 = time.perf_counter()
    facts = host_facts(binary)
    checker = Checker(refs, args.workload, args.n, args.exp_seed)
    trace = Trace(t0)
    if args.trace:
        values, reps = run_traced(binary, args, checker, trace)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values, reps = run_e2e(binary, args, checker, trace)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [k for k in wanted if k not in values]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")

    mode = "traced" if args.trace else "end-to-end"
    trace_path = os.path.join(os.path.dirname(build_dir()), "traces",
                              f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    trace.write(trace_path, {"workload": args.workload, "seed": args.seed,
                             "experiment_seed": args.exp_seed, "mode": mode, "host": facts})
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} (n={args.n}, shards={args.shards}, experiment seed "
          f"{args.exp_seed}), {mode}, {reps} measured repetitions")
    for k in wanted:
        print(f"  {k:34s} {values[k]:.6g} {units[k]}")
    print(f"  failed: {checker.failed} of {checker.attempted} attempted operations "
          f"(failed_frac {checker.failed / max(1, checker.attempted):.6g})")
    verdict = "PASS" if checker.correct else f"FAIL {checker.mismatches[:3]}"
    print(f"output check vs reference ({args.workload} inputs, seed {args.exp_seed}): {verdict}")
    print(f"trace: {trace_path}")
    result = {"correct": checker.correct, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
