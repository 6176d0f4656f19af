"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 docs/results/take_pairs.py PARENT_TREE CHANGE_TREE \\
        [--workload W] [--pairs 10] --out docs/results/prNN_pairs.json

Each tree is a checkout (a ``git clone`` of the parent commit, an
export of the change) holding its own ``benchmarks/e2e/run.py``, which
this script only invokes: pair ``i`` is one

    python3 benchmarks/e2e/run.py --workload W --seed i --seconds N --trace 0

in each tree (``N`` is ``run_seconds`` of the change tree's
``BENCHMARK.json``), the parent first on even ``i`` and the change
first on odd ``i``, each a fresh process under ``PYTHONHASHSEED=0``.
Every invocation's printed result line is recorded with the wall-clock
time it finished at, and each end-to-end metric is summarised by the
rule of the choosing-metrics guide, section 8:

``gain``          the change wins at least nine tenths of the pairs
                  (ties count for neither side) and the medians are
                  further apart than the parent's own runs spread
                  (the distance between their quartiles);
``within bound``  otherwise, when the change's median is no worse than
                  the parent's by more than the metric's bound in
                  ``BENCHMARK.json`` (for ``setup_s``: 25% or 0.3 s) —
                  or every run of the change beats every parent run;
``unresolved``    when either side's runs spread wider than the bound,
                  so the medians cannot tell;
``regressed``     worse by more than the bound, and resolved.

Nothing here measures: the numbers are what ``run.py`` printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def invoke(tree: Path, workload: str, seed: int, seconds) -> dict:
    """One ``run.py`` invocation in ``tree``; its result line, flat."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{tree}: run.py --workload {workload} --seed {seed} "
            f"exited with code {done.returncode}"
        )
    result = json.loads(lines[-1])
    metrics = result.pop("metrics")
    return {
        **result,
        **{name: m["value"] for name, m in metrics.items()},
        "seed": seed,
        "at": time.strftime("%H:%M:%S"),
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(parent: list[float], change: list[float], metric: dict) -> dict:
    """The section 8 verdict for one metric on one workload."""
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    bound = metric["bound"]
    if metric["name"] == "setup_s":
        bound = max(bound, 0.3 / p_med)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max(
        (max(side) - min(side)) / statistics.median(side)
        for side in (parent, change)
    )
    clean_sweep = (
        max(change) < min(parent) if lower else min(change) > max(parent)
    )
    if (
        wins >= math.ceil(0.9 * len(parent))
        and worse_by < 0
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        verdict = "gain"
    elif spread > bound and not clean_sweep:
        verdict = "unresolved"
    elif worse_by > bound and not clean_sweep:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_over_parent": c_med / p_med,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "bound": bound,
        "spread": spread,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    trees = {
        "parent": args.parent_tree.resolve(),
        "change": args.change_tree.resolve(),
    }
    manifest = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r}")
    names = [args.workload] if args.workload else declared

    document = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "run_seconds": manifest["run_seconds"],
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "pairs": {},
        "summary": {},
    }
    for name in names:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = invoke(trees[side], name, i, manifest["run_seconds"])
                run["ran_first"] = order[0]
                runs[side].append(run)
                print(
                    f"{name} pair {i} {side:<6} run_wall_s "
                    f"{run['run_wall_s']:.3f} correct={run['correct']}",
                    flush=True,
                )
        document["pairs"][name] = runs
        summary = {
            metric["name"]: summarise(
                [run[metric["name"]] for run in runs["parent"]],
                [run[metric["name"]] for run in runs["change"]],
                metric,
            )
            for metric in manifest["end_to_end"]
        }
        for side, side_runs in runs.items():
            summary[f"failed_share_{side}"] = sum(
                run["failed"] for run in side_runs
            ) / sum(run["attempted"] for run in side_runs)
        summary["all_correct"] = all(
            run["correct"] for side_runs in runs.values() for run in side_runs
        )
        document["summary"][name] = summary
        # Written after every workload: an interrupted session keeps
        # the pairs it took.
        document["finished"] = time.strftime("%Y-%m-%d %H:%M:%S")
        args.out.write_text(json.dumps(document, indent=1) + "\n")

    print(
        f"{'workload':<22}{'metric':<18}{'parent':>11}{'change':>11}"
        f"{'c/p':>7}{'wins':>6}  verdict"
    )
    for name, summary in document["summary"].items():
        for metric in manifest["end_to_end"]:
            s = summary[metric["name"]]
            print(
                f"{name:<22}{metric['name']:<18}{s['parent']['median']:>11.5g}"
                f"{s['change']['median']:>11.5g}{s['change_over_parent']:>7.3f}"
                f"{s['wins']:>3}/{s['pairs']:<2}  {s['verdict']}"
            )
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
