#!/usr/bin/env python3
"""Side-by-side A/B pairs of the repository benchmark.

Usage (from anywhere):

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W --seconds S --pairs N

Each tree must hold an already-built benchmark driver,
TREE/.bench_build/perfbench/pdac_perfbench (python3 perfbench/run.py builds
it).  Every pair runs both drivers untraced at the same time, each through
perfbench/run.py's run_driver in its own tree and pinned to its own CPU
taken from this script's affinity mask, so both see the same host state;
the two CPUs swap sides every pair.  Only the script's own child processes
are pinned.

Per pair the script prints the change/parent ratios of tok_s (scaled to the
reference host and unscaled), setup_s and peak_rss_mb, and every metric of
run.py's DETERMINISTIC list (the ones --check holds to exact repeats) whose
value differs between the two runs.  A summary gives each ratio's median
and quartiles.  Passing the same tree twice is an A/A run: its ratios show
the method's noise, and it checks those metrics across two concurrent
processes.

Side-by-side runs share the memory bus: the decode workloads, which stream
their operands from DRAM, slow each other down, so alternating sequential
runs stay the reference for them.

Exit status: 0 when every run passed its own checks and no deterministic
metric differed, 1 otherwise, 2 on bad arguments or a missing driver.
"""

import argparse
import multiprocessing
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # noqa: E402  (perfbench/run.py: the driver invocation and DETERMINISTIC)

# Ratios printed per pair: (label, metric).
RATIOS = [
    ("tok_s", "tok_s"),
    ("tok_s unscaled", "host.tok_s_unscaled"),
    ("setup_s", "setup_s"),
    ("peak_rss_mb", "peak_rss_mb"),
]


def pinned_run(tree, cpu, args):
    """run.run_driver in `tree`, this process and the driver on CPU `cpu`;
    the run's metrics, or None when it failed."""
    os.sched_setaffinity(0, {cpu})
    os.chdir(tree)
    code, result = run.run_driver(args.workload, args.seed, args.seconds, False, echo=False)
    if code != 0 or result is None or not result.get("correct"):
        return None
    return result["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4, method="inclusive")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=run.TUNING_SEED)
    args = parser.parse_args()
    if args.seconds <= 0 or args.pairs < 1:
        parser.error("--seconds must be positive and --pairs at least 1")
    trees = [os.path.abspath(args.parent_tree), os.path.abspath(args.change_tree)]
    for tree in trees:
        if not os.access(os.path.join(tree, run.BINARY), os.X_OK):
            print(f"ab_pairs: no built driver at {os.path.join(tree, run.BINARY)}", file=sys.stderr)
            return 2
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        print("ab_pairs: needs two CPUs in the affinity mask", file=sys.stderr)
        return 2
    cpus = cpus[-2:]

    ok = True
    ratios = {label: [] for label, _ in RATIOS}
    for pair in range(args.pairs):
        sides = (cpus[pair % 2], cpus[(pair + 1) % 2])
        print(f"pair {pair + 1}: parent on cpu {sides[0]}, change on cpu {sides[1]}", flush=True)
        with multiprocessing.get_context("fork").Pool(2) as pool:
            parent, change = pool.starmap(pinned_run, [(tree, cpu, args)
                                                       for tree, cpu in zip(trees, sides)])
        for side, metrics in (("parent", parent), ("change", change)):
            if metrics is None:
                print(f"  {side}: run failed")
        if parent is None or change is None:
            ok = False
            continue
        cells = []
        for label, name in RATIOS:
            if name in parent and name in change and parent[name]["value"] != 0:
                ratios[label].append(change[name]["value"] / parent[name]["value"])
                cells.append(f"{label} x{ratios[label][-1]:.3f}")
        print("  " + ", ".join(cells))
        for name in run.DETERMINISTIC:
            a = parent.get(name, {}).get("value")
            b = change.get(name, {}).get("value")
            if a != b:
                print(f"  differs: {name} {a} -> {b}")
                ok = False
        sys.stdout.flush()

    print(f"summary over {args.pairs} pairs (change/parent: median [q1, q3]):")
    for label, values in ratios.items():
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"  {label:15s} x{q2:.3f} [{q1:.3f}, {q3:.3f}]")
    print("deterministic metrics: " + ("all equal" if ok else "DIFFER or a run failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
