#!/usr/bin/env python3
"""Build servebench from source and run one workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the enw libraries it links) under .bench_build/servebench;
later runs rebuild only what changed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric named in BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1 (a layer the workload does not touch reads 0).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the binary path or None."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], env=env,
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "servebench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1

    env = dict(os.environ)
    # Collators run the model single-threaded so the three senders and the
    # collators fit the host's cores (README.md); tracing stays off unless
    # the traced run turns it on itself.
    env["ENW_THREADS"] = "1"
    env.pop("ENW_PROF", None)
    env.pop("ENW_BACKEND", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    print(f"provenance: commit={commit()}", flush=True)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: servebench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: servebench printed no result (exit {proc.returncode})")
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in declared:
        if m["name"] in measured:
            got = measured[m["name"]]
            if got["unit"] != m["unit"]:
                log(f"run.py: {m['name']} measured in {got['unit']}, declared {m['unit']}")
                result["correct"] = False
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}  # layer not exercised
        else:
            log(f"run.py: end-to-end metric {m['name']} missing")
            result["correct"] = False
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
