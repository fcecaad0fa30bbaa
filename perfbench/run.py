#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

Run one workload:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 \\
        --seconds 20 --trace 0

builds the library and cts_cacd with the repository's own CMake build,
builds the benchmark runner against them (all under .bench_build/), runs
the workload, prints every metric by name with its unit, and prints as
its last line one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer table.  The exit status is 1 when an output check failed, 2
when the benchmark could not run.

Compare two sets of results (files written with --out); results pinned
to different hosts are refused:

    python3 perfbench/run.py compare --base A1.json A2.json \\
        --new B1.json B2.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
# Performance changes also check their claim on the held-out seed
# 20261017, which no change may be tuned on (see README.md).
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
# The repository files the benchmark builds from.
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "include/cts",
            "tools/cts_cacd.cpp"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def cpus():
    return len(os.sched_getaffinity(0))


# Worker threads of the threaded workloads.  Not all of the host's CPUs:
# with 4 threads on a 4-vCPU guest, any vCPU the hypervisor steals
# stretched every round (sim_markov wall_s spread 26% over ten runs while
# cpu_s spread 6%).
SIM_THREADS = 2


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        fail("build step failed: " + " ".join(str(c) for c in cmd) +
             "\n" + "\n".join(tail))


def build():
    """Incremental two-stage build; returns (runner, cts_cacd) paths."""
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail("repository sources not found next to perfbench/: " +
             ", ".join(missing))
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(cpus())
    lib_dir = BUILD / "cts"
    if not (lib_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", lib_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    "-DCTS_BUILD_TESTS=OFF", "-DCTS_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", lib_dir, "-j", jobs,
                "--target", "cts", "cts_cacd"], log)
    bench_dir = BUILD / "runner"
    if not (bench_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", HERE, "-B", bench_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    f"-DCTS_SOURCE_DIR={ROOT}",
                    f"-DCTS_LIBRARY={lib_dir / 'src' / 'libcts.a'}"], log)
    run_logged(["cmake", "--build", bench_dir, "-j", jobs], log)
    return bench_dir / "cts_perfbench", lib_dir / "tools" / "cts_cacd"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (known: {', '.join(names)})")
    runner, cacd = build()
    work_dir = BUILD / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    threads = min(SIM_THREADS, cpus())
    cmd = [runner, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--threads={threads}", f"--work-dir={work_dir}", f"--cacd={cacd}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} runner exited with status {done.returncode}")
    record = json.loads(lines[-1])
    record["host"].update({"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                           "build_type": BUILD_TYPE})

    # Every metric BENCHMARK.json names, with the unit it names.  A
    # per-layer metric a workload does not produce is a layer that does no
    # work on it: reported as 0.
    table = "per_layer" if args.trace else "end_to_end"
    produced = record[table]
    metrics = {}
    for m in bench[table]:
        got = produced.get(m["name"])
        if got is None:
            if table == "end_to_end":
                fail(f"{args.workload} did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} but BENCHMARK.json "
                 f"says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    out = Path(args.out) if args.out else (
        BUILD / "results" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    host = record["host"]
    print(f"# {args.workload} seed={args.seed} rounds={record['rounds']} "
          f"threads={record['threads']} host: {host['cpu_model']}, "
          f"nproc={host['nproc']}, simd={host['simd']}, "
          f"{host['build_type']}, gcc {host['compiler']}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for check in record["checks"]:
        state = "ok  " if check["ok"] else "FAIL"
        print(f"check {state} {check['name']} {check['detail']}")
    print(f"# full record: {out}")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


HOST_KEYS = ["cpu_model", "nproc", "simd", "compiler", "build_type"]


def compare(args):
    bench = spec()
    records = {"base": [], "new": []}
    for side in records:
        for path in getattr(args, side):
            with open(path) as f:
                records[side].append(json.load(f))
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS})
             for side in records.values() for r in side}
    if len(hosts) != 1:
        print("perfbench compare: refusing to compare results from different "
              "hosts:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2
    regressions = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vals = {side: [r["end_to_end"][m["name"]]["value"]
                           for r in recs if r["workload"] == w["name"]
                           and m["name"] in r["end_to_end"]]
                    for side, recs in records.items()}
            if not vals["base"] or not vals["new"]:
                continue
            base = statistics.median(vals["base"])
            new = statistics.median(vals["new"])
            change = (new - base) / base if base else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"{w['name']:15s} {m['name']:12s} base {base:12.6g} "
                  f"new {new:12.6g} {change * 100:+7.2f}% "
                  f"(bound {m['bound'] * 100:.0f}%) {verdict}")
    return 1 if regressions else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", nargs="+", required=True)
        p.add_argument("--new", nargs="+", required=True)
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="where to write the full JSON record")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.seed < 0:
        fail("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
