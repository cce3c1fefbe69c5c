#!/usr/bin/env python3
"""Self-tests for the benchmark itself (run from the repository root):

  python3 perfbench/selftest.py

1. At the smoke size (n=8) every workload emits every end-to-end metric
   (--trace 0) and every per-layer metric (--trace 1), each with the unit
   BENCHMARK.json names, and passes its output check.
2. A deliberately perturbed reference trips the output check (every
   operation counts as failed), while a 1e-12 relative shift does not.
3. Two back-to-back runs of the same input give identical simulated outputs
   and counts.
4. Without the library sources next to it, the benchmark exits non-zero
   without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own module)

SMOKE_N = 8
WORK = os.path.join(os.path.dirname(run.build_dir()), "selftest")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *map(str, args)],
                       capture_output=True, text=True, cwd=cwd)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return p.returncode, result, p.stderr


def main():
    binary = run.build()
    spec, units = run.load_spec()
    os.makedirs(WORK, exist_ok=True)
    ref = os.path.join(WORK, f"reference-n{SMOKE_N}.json")
    if os.path.exists(ref):
        os.remove(ref)
    code, _, err = bench("--record-reference", "--n", SMOKE_N, "--out", ref)
    check(code == 0, f"record smoke reference (n={SMOKE_N})" + ("" if code == 0 else err[-300:]))

    # 1. Every named metric, with its unit, at the smoke size.
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = bench("--workload", w["name"], "--seed", 1, "--seconds", 1,
                                   "--trace", trace, "--n", SMOKE_N, "--reference", ref)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            check(code == 0 and res is not None and got == want,
                  f"{w['name']} --trace {trace}: emits every {kind} metric with its unit"
                  + ("" if code == 0 else " " + err[-300:]))
            check(res is not None and res["correct"] and res["attempted"] >= 1,
                  f"{w['name']} --trace {trace}: output check passes")

    # 2. A perturbed reference trips the check; rounding-level shifts do not.
    with open(ref) as fh:
        refs = json.load(fh)
    seed = str(run.SEED_BASE + (1 % run.SEED_FAMILY))
    for rel, should_pass in ((1e-6, False), (1e-12, True)):
        bent = json.loads(json.dumps(refs))
        entry = bent["workloads"]["fleet-stagger-nb"][str(SMOKE_N)][seed]
        entry["avg_migration_s"] *= 1 + rel
        path = os.path.join(WORK, f"reference-perturbed-{rel:g}.json")
        with open(path, "w") as fh:
            json.dump(bent, fh)
        code, res, _ = bench("--workload", "fleet-stagger-nb", "--seed", 1, "--seconds", 1,
                             "--trace", 0, "--n", SMOKE_N, "--reference", path)
        if should_pass:
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  f"a {rel:g} relative shift stays within tolerance")
        else:
            check(code == 0 and not res["correct"] and res["failed"] == res["attempted"],
                  f"a {rel:g} relative shift trips the output check and fails every operation")

    # 3. Back-to-back runs are identical in outputs and counts.
    for w in spec["workloads"]:
        a, _ = run.hmbench(binary, "run", "--workload", w["name"], "--seed", 42, "--n", SMOKE_N)
        b, _ = run.hmbench(binary, "run", "--workload", w["name"], "--seed", 42, "--n", SMOKE_N)
        check(a["outputs"] == b["outputs"]
              and run.stable_counts(a["counts"]) == run.stable_counts(b["counts"]),
              f"{w['name']}: back-to-back runs give identical outputs and counts")

    # 4. Benchmark files alone: no sources to build, so no result.
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res, _ = bench("--workload", "fleet-stagger-nb", "--seed", 1, "--seconds", 1,
                         "--trace", 0, cwd=bare)
    check(code != 0 and res is None, "without the sources it exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
