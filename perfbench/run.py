#!/usr/bin/env python3
"""Builds the engine and the benchmark driver from this checkout, then runs
one workload and passes its output through.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is the JSON result. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; spill
files go to a directory inside it. --smoke runs every workload at a tiny
scale and checks the benchmark itself (see README.md).
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
WORKLOADS = ("analytic", "adhoc", "oltp", "spill")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = os.path.join(build_root(), "perfbench")
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, args, env):
    """Runs the driver; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def driver_env():
    env = dict(os.environ)
    spill = os.path.join(build_root(), "spill")
    os.makedirs(spill, exist_ok=True)
    env["STARBURST_SPILL_DIR"] = spill
    env["PERFBENCH_GIT_SHA"] = revision()
    return env


def smoke(binary, env):
    """Every workload at tiny scale: all named metrics with their units, a
    second seed changes the statement stream but not the metric set, and
    error_ratio is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        streams = {}
        for seed in (1, 2):
            for trace in (0, 1):
                args = argparse.Namespace(workload=workload, seed=seed,
                                          seconds=1, trace=trace, scale=0.05)
                code, lines = run(binary, args, env)
                tag = "%s seed=%d trace=%d" % (workload, seed, trace)
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    problems.append(tag + ": no JSON result (exit %d)" % code)
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(tag + ": metric set/units differ: %s"
                                    % sorted(set(got.items()) ^ set(want[trace].items())))
                if result["failed"] != 0 or not result["correct"] or code != 0:
                    problems.append(tag + ": %d of %d statements failed"
                                    % (result["failed"], result["attempted"]))
                if trace == 1 and result["metrics"]["error_ratio"]["value"] != 0:
                    problems.append(tag + ": error_ratio is not 0")
                streams[(seed, trace)] = [l for l in lines if l.startswith("# stream")]
        if streams.get((1, 0)) == streams.get((2, 0)):
            problems.append(workload + ": seeds 1 and 2 gave the same statement stream")
        log("smoke %-8s done" % workload)
    for p in problems:
        log("smoke FAIL: " + p)
    log("smoke %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="data-size factor (1 is the measured size)")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    env = driver_env()
    if args.smoke:
        return smoke(binary, env)
    code, lines = run(binary, args, env)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
