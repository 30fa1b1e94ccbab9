#!/usr/bin/env python3
"""Paired parent-vs-change performance gate on perfbench's traced fig6_campaign.

    python3 .github/paired_gate.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two source checkouts (the change's base commit
and the change itself). For each seed 1..10 the gate runs

    python3 perfbench/run.py --workload fig6_campaign --seed S --seconds 6 --trace 1

once in each checkout, on the same machine, alternating which side runs
first, and reads four per-layer metrics from the last JSON line of each run:

    msgsim.ns_per_event      the event engine as msgsim drives it
    des.fanout_events_per_s  the raw event engine (higher is better)
    hagerup.batch_s          the lockstep replica batcher
    hagerup.fallback_s       the scalar replica

Each seed gives one pair and one ratio per metric, oriented so that a ratio
above 1 means the change is worse. A metric fails when the change is worse
in at least 9 of the 10 pairs and the median ratio exceeds 1.15. Pairing on
one machine cancels the host's speed; requiring both conditions keeps one
noisy pair or a uniformly loaded machine from failing an unchanged tree.

Each checkout builds into its own CARGO_TARGET_DIR (CHECKOUT/.bench_build)
on its first run. Exit codes: 0 every metric passed; 2 bad arguments, or a
run that could not run or was not "correct": true; 5 a metric regressed.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOAD = "fig6_campaign"
SEEDS = range(1, 11)
SECONDS = 6
# (metric, higher is better)
METRICS = (
    ("msgsim.ns_per_event", False),
    ("des.fanout_events_per_s", True),
    ("hagerup.batch_s", False),
    ("hagerup.fallback_s", False),
)
MIN_WORSE_PAIRS = 9
MAX_MEDIAN_RATIO = 1.15
# The first run of each side includes a cold release build.
RUN_TIMEOUT_S = 1800
EXIT_RUN_FAILED = 2
EXIT_REGRESSION = 5


class GateError(Exception):
    """A run that could not run, or did not pass perfbench's own checks."""


def run_side(checkout, seed):
    """One traced perfbench run in `checkout`; returns the gated metrics."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    args = [
        sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1",
    ]
    where = f"{checkout} seed {seed}"
    try:
        p = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise GateError(f"{where}: {e}")
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
        values = {name: float(result["metrics"][name]["value"]) for name, _ in METRICS}
    except (IndexError, ValueError, KeyError, TypeError):
        raise GateError(f"{where}: exit {p.returncode}, no result line\n{p.stderr[-2000:]}")
    if result.get("correct") is not True:
        raise GateError(f"{where}: not correct (exit {p.returncode})\n{p.stdout[-2000:]}")
    for name, v in values.items():
        if not v > 0:
            raise GateError(f"{where}: {name} = {v}, expected a positive value")
    return values


def main(argv):
    if len(argv) != 3:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return EXIT_RUN_FAILED
    parent, change = (os.path.abspath(d) for d in argv[1:])
    if os.path.realpath(parent) == os.path.realpath(change):
        print("paired_gate: PARENT_DIR and CHANGE_DIR must be two checkouts", file=sys.stderr)
        return EXIT_RUN_FAILED

    runs = {"parent": [], "change": []}
    try:
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(parent if side == "parent" else change, seed))
            print(f"seed {seed}: " + "  ".join(
                f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                for name, _ in METRICS), flush=True)
    except GateError as e:
        print(f"paired_gate: {e}", file=sys.stderr)
        return EXIT_RUN_FAILED

    failed = []
    print(f"\n{'metric':<26} {'parent med':>12} {'change med':>12} {'med ratio':>10} "
          f"{'worse':>6}  verdict")
    for name, higher_is_better in METRICS:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        ratios = [(pv / cv) if higher_is_better else (cv / pv) for pv, cv in zip(p, c)]
        worse = sum(r > 1 for r in ratios)
        med = statistics.median(ratios)
        regressed = worse >= MIN_WORSE_PAIRS and med > MAX_MEDIAN_RATIO
        if regressed:
            failed.append(name)
        print(f"{name:<26} {statistics.median(p):>12.5g} {statistics.median(c):>12.5g} "
              f"{med:>10.3f} {worse:>3}/{len(ratios)}  {'FAIL' if regressed else 'ok'}")
    print(f"\n(ratio > 1 means the change is worse; a metric fails at >= {MIN_WORSE_PAIRS} "
          f"worse pairs and a median ratio above {MAX_MEDIAN_RATIO})")
    if failed:
        print(f"paired_gate: regression in {', '.join(failed)}", file=sys.stderr)
        return EXIT_REGRESSION
    print("paired_gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
