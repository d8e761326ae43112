#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the real Filesystem.

One run (the form BENCHMARK.json's command takes), from the repository root:

    python3 perfbench/run.py --workload seq_overwrite --seed 1 --seconds 10 --trace 0

builds perfbench/ (a Cargo package of its own) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and passes the program's report
through; its last stdout line is the result as one JSON object.

Steadiness report over several seeds:

    python3 perfbench/run.py repeat --workload seq_overwrite --runs 10 [--sets 2]

prints each metric's median and quartiles and flags every metric whose
spread, (q3 - q1) / median, exceeds its bound in BENCHMARK.json.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
# A run must end within 180 s; leave room to report a hung one.
RUN_TIMEOUT_S = 170
# glibc raises its mmap and trim thresholds (from 128 KiB up to 32 MiB)
# as large blocks are freed, and each thread's arena keeps freed memory up to
# the trim threshold, so peak RSS and write latency depended on which arena
# happened to hold which buffer. Setting the thresholds fixes them at glibc's
# start-up defaults: buffers over 128 KiB (NVLog halves, frozen CP buffer
# lists) are mapped when allocated and unmapped when freed. Over five aio_seq
# runs on a 2-vCPU Xeon VM, peak RSS spread over 106-141 MiB with the
# thresholds at 32 MiB / 64 MiB and over 85-86 MiB at 128 KiB, at the same
# throughput; perfbench/README.md has the figures.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072",
              "MALLOC_TRIM_THRESHOLD_": "131072"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Build the benchmark; exit without a result if that fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        sys.exit(2)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "vendor"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def envelope_env():
    env = dict(os.environ)
    for key, value in MALLOC_ENV.items():
        env.setdefault(key, value)
    try:
        env["PERFBENCH_RUSTC"] = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        env["PERFBENCH_RUSTC"] = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = rev.stdout.strip() if rev.returncode == 0 else ""
    except OSError:
        commit = ""
    env["PERFBENCH_COMMIT"] = commit or f"source-sha256:{source_digest()}"
    return env


def clean_backend_files():
    """Remove drive files a killed run may have left behind."""
    if os.path.isdir(OUT_DIR):
        for name in os.listdir(OUT_DIR):
            if name.startswith("fb-"):
                shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)


def run_once(binary, args, env):
    """Run the program; return (exit code, stdout lines)."""
    cmd = [binary, *args, "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        out += ("FAILURE run did not finish within %d s\n" % RUN_TIMEOUT_S
                + json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}) + "\n")
        code = 1
    finally:
        clean_backend_files()
    return code, out.splitlines()


def single(argv):
    binary = build()
    code, lines = run_once(binary, argv, envelope_env())
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def repeat(argv):
    import argparse
    p = argparse.ArgumentParser(prog="run.py repeat")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float)
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    binary = build()
    env = envelope_env()
    medians = []
    for s in range(a.sets):
        values, units, incorrect = {}, {}, 0
        for r in range(a.runs):
            seed = a.seed0 + s * a.runs + r
            code, lines = run_once(binary, ["--workload", a.workload, "--seed",
                                            str(seed), "--seconds", str(seconds),
                                            "--trace", "0"], env)
            res = result_of(lines)
            if res is None or not res["correct"]:
                incorrect += 1
                for line in lines:
                    if line.startswith("FAILURE"):
                        log(f"seed {seed}: {line}")
            if res is None:
                continue
            if r == 0 and s == 0:
                print(next((x for x in lines if x.startswith("envelope")), ""))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"set {s + 1} seed {seed}: exit {code}, correct {res['correct']}, "
                + ", ".join(f"{k} {m['value']:.6g}" for k, m in res["metrics"].items()))
        print(f"\n{a.workload} set {s + 1}: {a.runs} runs of {seconds} s, "
              f"{incorrect} incorrect")
        print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}  unit")
        med = {}
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med[name] = q2
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("FLAG over bound" if spread > bound else
                        "over bound/3" if spread > bound / 3 else "")
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"{name:<34} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(v):>12.6g} {max(v):>12.6g} {spread:>7.3f} {shown:>6}  "
                  f"{units[name]}  {flag}")
        medians.append(med)
    if len(medians) > 1:
        better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        print("\nsecond set against the first (share of the first median, "
              "positive = worse)")
        for name, first in medians[0].items():
            second = medians[1].get(name)
            if second is None or not first:
                continue
            worse = (second - first) / abs(first)
            if better.get(name) == "higher":
                worse = -worse
            bound = bounds.get(name)
            flag = "FLAG" if bound is not None and worse > bound else ""
            print(f"{name:<34} {worse:>+8.3f} {flag}")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        return repeat(argv[1:])
    return single(argv)


if __name__ == "__main__":
    sys.exit(main())
