#!/usr/bin/env python3
"""Repository benchmark entry point (see slmbench/README.md).

    python3 slmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds slm_perf from source into
.bench_build/slmbench (CMake, Release), runs one workload, and relays its
output; the last stdout line is the result JSON. --pin prints the op's
outcome as a slmbench/pins.tsv line instead of measuring.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["attack_alu_hw", "fullkey_tdc_sharded", "replay_analyze", "serve_preempt"]
# Library knobs that change what is measured; the benchmark runs the
# defaults ...
SCRUBBED_ENV = ["SLM_RNG_CONTRACT", "SLM_BLOCK", "SLM_SIMD", "SLM_TRACE"]
# ... except that the serial benign-HW engine (attack_alu_hw and the
# serve attack slices) runs on one thread on every host. On multi-core
# hosts its default adds a producer thread that hands over every
# 64-trace block; on a shared VM those cross-vCPU handoffs made the
# attack op vary 2.5x and the serve drain 1.5x from run to run
# (README: Noise).
PINNED_ENV = {"SLM_PIPELINE": "0"}


def fail(msg):
    print("slmbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    out = os.path.join(BUILD, "slmbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "slm_perf"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "slm_perf")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(res))
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (missing, extra, [k for k in want if k in got and got[k] != want[k]]))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to slmbench/ — run from a repository checkout")
    binary = build()

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(PINNED_ENV)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--pins", os.path.join(HERE, "pins.tsv"),
           "--commit", commit_id()]
    if args.pin:
        cmd.append("--pin")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.isfile(spans):
            shutil.move(spans, os.path.join(BUILD, "spans-%s.jsonl" % args.workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("slm_perf exited with %d" % r.returncode)
    if not args.pin:
        check_result(lines[-1], args.trace)
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
