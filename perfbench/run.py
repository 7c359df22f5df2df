#!/usr/bin/env python3
"""End-to-end benchmark of the GA IP core simulator stack.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's libraries plus the perfbench executable from source
into .bench_build/ (RelWithDebInfo, the repository's default build type),
runs one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. The lines
before it carry the environment block, the per-metric sample counts and the
simulated statistics of each unit of work.

Simulated statistics must repeat exactly for a seed: the first run of a
(workload, seed) pair records them under .bench_build/perfbench/units/
(keyed by a digest of the benchmark's own sources), and every later run
must agree with the recorded units it shares; a mismatch is a failed
operation. See perfbench/README.md for workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(STATE, "build")
WORKLOADS = ("gate_lanes", "seu_campaign", "rtl_grid", "gaipd_mixed")


def run_timeout_s(seconds, trace):
    """Upper bound on one workload process: a traced run measures up to three
    passes of `seconds` (gaipd_mixed), plus set-up and checks."""
    return (3 if trace else 1) * seconds * 2 + 120


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        log("no repository sources next to perfbench/ (need CMakeLists.txt and src/)")
        sys.exit(2)
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(BUILD, "perfbench", "perfbench")


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAIP_")}
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # the JIT's host compiler writes its temporaries here
    env["GAIP_JIT_CACHE"] = os.path.join(STATE, "jit-cache")
    return env


def sources_digest():
    """Digest of the benchmark's own sources: units recorded by another
    version of the benchmark are not comparable."""
    h = hashlib.sha1()
    for d, _, files in sorted(os.walk(HERE)):
        for name in sorted(files):
            with open(os.path.join(d, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def check_units(workload, seed, units):
    """True when `units` agree with the units recorded for this seed."""
    path = os.path.join(STATE, "units", sources_digest(), "%s-%d.json" % (workload, seed))
    recorded = []
    if os.path.isfile(path):
        with open(path) as f:
            recorded = json.load(f)
    n = min(len(recorded), len(units))
    if recorded[:n] != units[:n]:
        for i in range(n):
            if recorded[i] != units[i]:
                log("unit %d of seed %d repeats differently: %s != %s"
                    % (i, seed, units[i], recorded[i]))
                break
        return False
    if len(units) > len(recorded):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(units, f)
        os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    workdir = os.path.join(STATE, "work", "%s-%d" % (a.workload, os.getpid()))
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--workdir", os.path.relpath(workdir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), stdout=subprocess.PIPE,
                              timeout=run_timeout_s(a.seconds, a.trace), text=True)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %.0f s" % (a.workload, run_timeout_s(a.seconds, a.trace)))
        sys.exit(3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log("%s exited with %d" % (a.workload, proc.returncode))
        sys.exit(proc.returncode if proc.returncode > 0 else 1)

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("PERFBENCH_UNITS "):
            units = json.loads(line[len("PERFBENCH_UNITS "):])
            if not check_units(a.workload, a.seed, units):
                result["failed"] += 1
                result["attempted"] += 1
                result["correct"] = False
        else:
            print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
