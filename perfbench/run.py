#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode_bert_base --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --check             # determinism + held-out seed report

The first call configures and builds perfbench/ (the library sources plus
the benchmark driver) in Release mode under .bench_build/perfbench; later
calls only rebuild what changed.  Each workload runs in its own process.
The driver prints its notes and every metric it measured; this script then
prints, as its last line, one JSON object with the metrics BENCHMARK.json
lists: the end_to_end ones for --trace 0, the per_layer ones for --trace 1.
A per-layer metric the workload does not exercise is reported as 0.

Exit status: 0 when every correctness check passed, 1 when a check failed
or the build or run broke, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "pdac_perfbench")
WORKLOADS = ["decode_bert_base", "decode_long_context", "serve_guarded_storm"]

# The seed the benchmark was tuned on, and one held out for confirming
# claims (see perfbench/README.md).
TUNING_SEED = 1
HELD_OUT_SEED = 1009

# Metrics that must repeat exactly for one seed: simulated cost, virtual
# time, accuracy and the ptc event counts.
DETERMINISTIC = [
    "sim_uj_per_token", "sim_cycles_per_token", "pdac_saving", "decode_cosine",
    "token_gap_p50_cycles", "token_gap_tail_cycles", "goodput_share", "failed_share",
    "ptc.macs_per_token", "ptc.modulations_per_token", "ptc.adc_samples_per_token",
    "ptc.cycles_per_token",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (once) and build the driver; False when either fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--trace-dir", TRACE_DIR, "--git-sha", git_sha()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def select(result, names_units):
    """The listed metrics, unit-checked; missing per-layer ones become 0."""
    out, missing = {}, []
    for name, unit in names_units:
        got = result["metrics"].get(name)
        if got is None:
            missing.append(name)
            out[name] = {"value": 0.0, "unit": unit}
            continue
        if got["unit"] != unit:
            raise ValueError(f"metric {name}: unit {got['unit']} != {unit} in BENCHMARK.json")
        out[name] = got
    return out, missing


def run_one(args, spec):
    code, result = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log(f"perfbench: {args.workload} produced no result (exit {code})")
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    try:
        metrics, missing = select(result, [(m["name"], m["unit"]) for m in spec[key]])
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    if missing and not args.trace:
        log("perfbench: end-to-end metrics missing: " + ", ".join(missing))
        return 1
    if missing:
        print("# not exercised by this workload (reported as 0): " + ", ".join(missing))
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec):
    """Every workload in its own process; one combined JSON line."""
    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        code, result = run_driver(workload, args.seed, args.seconds, args.trace)
        if result is None:
            log(f"perfbench: {workload} produced no result (exit {code})")
            return 1
        correct = correct and bool(result["correct"]) and code == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics, _ = select(result, names)
        for name, m in metrics.items():
            combined[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def check(args):
    """Two runs on the tuning seed must agree exactly on every deterministic
    metric; a third run reports the held-out seed."""
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in (TUNING_SEED, TUNING_SEED, HELD_OUT_SEED):
            code, result = run_driver(workload, seed, args.seconds, False, echo=False)
            if result is None or code != 0 or not result["correct"]:
                log(f"perfbench: {workload} seed {seed} failed (exit {code})")
                return 1
            runs.append(result["metrics"])
        a, b, held = runs
        same = True
        for name in DETERMINISTIC:
            if name in a and a[name]["value"] != b[name]["value"]:
                same = False
                print(f"NOT DETERMINISTIC {workload}.{name}: {a[name]['value']} vs {b[name]['value']}")
        ok = ok and same
        print(f"== {workload}: deterministic metrics repeat on seed {TUNING_SEED}: "
              f"{'yes' if same else 'no'}; held-out seed {HELD_OUT_SEED}:")
        for name, m in held.items():
            print(f"  {name:44s} {m['value']:18.6f} {m['unit']}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--check", action="store_true",
                        help="determinism check on the tuning seed plus a held-out seed")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 1
    if args.check:
        return check(args)
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 1
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
