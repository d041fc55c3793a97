#!/usr/bin/env python3
"""End-to-end benchmark of Blockplane on both clocks.

    python3 e2ebench/run.py --workload geo_batched --seed 1 --seconds 20 \
        --trace 0

Builds the driver (e2ebench/driver.cc plus the library in src/) into
.bench_build/ at the root of the checkout, runs one workload in its own
process, and prints every metric by name and unit. The last line of stdout is
one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer ledger, from a traced run. Names and
units come from BENCHMARK.json. A failed correctness check, a failed build
or a missing metric exits 1 without printing a result. Every result is also
written, with its provenance, under .bench_build/results/. Arguments the
script does not know (--short, --inject) go to the driver unchanged; see
README.md.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
DRIVER = os.path.join(BUILD, "e2ebench_driver")
RUN_TIMEOUT_S = 170

# End-to-end metrics that --trace 0 prints beside the bounded ones in
# BENCHMARK.json's end_to_end. They carry no bound (README.md, "Metrics"),
# so BENCHMARK.json lists them, with their units, under per_layer.
UNBOUNDED_END_TO_END = ["wall_ops_per_s",
                        "read_latency_p50_ms", "read_latency_p99_ms",
                        "max_rate_ops_per_vs", "wan_bytes_per_op",
                        "ops_failed_frac", "recovery_ms"]

# Reported as 0 where the workload has no such thing (no reads, no crash,
# no ladder, no WAN); the table prints those as n/a.
NOT_APPLICABLE_WHEN_ZERO = {"read_latency_p50_ms", "read_latency_p99_ms",
                            "max_rate_ops_per_vs", "wan_bytes_per_op",
                            "recovery_ms"}


def catalog():
    """(end_to_end, per_layer) from BENCHMARK.json, as [(name, unit)]."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        fail("%s is missing" % path)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; a no-op when it is up to date."""
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-3000:])
                fail("build failed (log: %s)" % log_path)


def provenance(args, info):
    """Where a result came from: sources, build, machine, inputs."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if p.returncode == 0:
            sha = p.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": info.get("build_type"),
        "compiler": info.get("compiler"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "passes": info.get("passes"),
        "cells": info.get("cells"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, driver_args = parser.parse_known_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += driver_args
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("the %s driver exited %d" % (args.workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the driver printed no result")
    raw = json.loads(lines[-1])
    values = raw["metrics"]

    end_to_end, per_layer = catalog()
    if args.trace == 0:
        reported = end_to_end
        units = dict(per_layer)
        shown = reported + [(n, units[n]) for n in UNBOUNDED_END_TO_END
                            if n in values]
    else:
        reported = per_layer
        shown = reported
    for name, _ in reported:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            fail("metric %s is missing" % name)
        if args.trace == 0 and value <= 0:
            fail("end-to-end metric %s is %r, never expected <= 0" %
                 (name, value))

    prov = provenance(args, raw.get("info", {}))
    print("workload %s  seed %d  %s  (%d passes, %d cells, %.1f s)" %
          (args.workload, args.seed, "traced" if args.trace else "untraced",
           prov["passes"] or 0, prov["cells"] or 0, time.time() - started))
    samples = values.get("latency_samples")
    for name, unit in shown:
        note = ""
        if name.startswith("latency_p") and samples is not None:
            note = "  (%d samples)" % samples
        if name.startswith("read_latency_p"):
            note = "  (%d samples)" % values.get("read_latency_samples", 0)
        if name in NOT_APPLICABLE_WHEN_ZERO and values[name] == 0:
            print("  %-36s %16s" % (name, "n/a"))
            continue
        print("  %-36s %16.6f %-6s%s" % (name, values[name], unit, note))
    print("  attempted %d, failed %d" % (raw["attempted"], raw["failed"]))
    print("provenance " + json.dumps(prov, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in reported}
    result = {"correct": True, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump({"result": result, "all_metrics": values,
                   "provenance": prov}, f, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
