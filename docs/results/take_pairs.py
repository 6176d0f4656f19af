"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 docs/results/take_pairs.py PARENT_TREE CHANGE_TREE \\
        [--workload W] [--pairs 10] --out docs/results/prNN_pairs.json
    python3 docs/results/take_pairs.py PARENT_TREE CHANGE_TREE --traced \\
        [--workload W] --out docs/results/prNN_traced.json

Each tree is a checkout (a ``git clone`` of the parent commit, an
export of the change) holding its own ``benchmarks/e2e/run.py``, which
this script only invokes: pair ``i`` is one

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0

in each tree (``S`` is ``i``, ``N`` is ``run_seconds`` of the change
tree's ``BENCHMARK.json``), the parent first on even ``i`` and the
change first on odd ``i``, each a fresh process under
``PYTHONHASHSEED=0`` (:func:`alternate`).
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

With ``--traced`` it takes one ``--trace 1`` invocation per tree and
workload instead (the parent first, seed 0, ``PYTHONHASHSEED=0``)
and writes every per-layer metric of the two side by side.  A metric
whose unit is ``count`` or ``bytes`` counts work — SDEs, queries,
alerts, crowd queries, checkpoint bytes — and must not move under a
change that claims the same output: each one that differs is listed
per workload, and the script exits with status 1 if any list is
non-empty.  The collector's own counts (``runtime.gc.*``) move with
what a change allocates; they are listed apart and do not fail it.
``trace.spans`` holds one span per collection too, so it is compared
net of ``runtime.gc.collections``.

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
from collections.abc import Callable
from pathlib import Path


def invoke(tree: Path, workload: str, seed: int, seconds, trace: int = 0) -> dict:
    """One ``run.py`` invocation in ``tree``; its result line, flat."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
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


def alternate(
    pairs: int, run_one: Callable[[str, int], dict], label: str
) -> dict[str, list[dict]]:
    """``pairs`` alternating pairs: pair ``i`` is ``run_one(side, i)``
    for both sides, the parent first on even ``i`` and the change first
    on odd ``i``; each run records which side ran first."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_one(side, i)
            run["ran_first"] = order[0]
            runs[side].append(run)
            print(
                f"{label} pair {i} {side:<6} step_cpu_ms_mean "
                f"{run['step_cpu_ms_mean']:.2f}",
                flush=True,
            )
    return runs


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


#: Units of the per-layer metrics that count work.
COUNTED_UNITS = ("count", "bytes")

#: Counted metrics of the collector, not of the work: listed apart.
COLLECTOR = "runtime.gc."

#: Counted metrics holding one unit per collection, compared net of it.
NET_OF_COLLECTIONS = ("trace.spans",)


def counts_differ(runs: dict, units: dict) -> tuple[list, list]:
    """The counted metrics that differ between ``runs["parent"]`` and
    ``runs["change"]``: those of the work, and those of the collector."""
    def value(run, metric):
        if metric in NET_OF_COLLECTIONS:
            return run.get(metric, 0) - run.get("runtime.gc.collections", 0)
        return run.get(metric)

    differ = [
        metric for metric, unit in units.items()
        if unit in COUNTED_UNITS
        and value(runs["parent"], metric) != value(runs["change"], metric)
    ]
    return (
        [m for m in differ if not m.startswith(COLLECTOR)],
        [m for m in differ if m.startswith(COLLECTOR)],
    )


def summarise_runs(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """:func:`summarise` for each of ``metrics`` the runs carry."""
    return {
        metric["name"]: summarise(
            [run[metric["name"]] for run in runs["parent"]],
            [run[metric["name"]] for run in runs["change"]],
            metric,
        )
        for metric in metrics
        if metric["name"] in runs["parent"][0]
    }


def take_traced(trees: dict, names: list, manifest: dict, out: Path) -> int:
    """One traced invocation per tree and workload, side by side; 1 if
    a counted metric differs between the trees, else 0."""
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    document = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "seed": 0,
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "workloads": {},
        "counts_differ": {},
        "collector_counts_differ": {},
    }
    for name in names:
        runs = {
            side: invoke(tree, name, 0, manifest["run_seconds"], trace=1)
            for side, tree in trees.items()
        }
        document["workloads"][name] = runs
        (
            document["counts_differ"][name],
            document["collector_counts_differ"][name],
        ) = counts_differ(runs, units)
        document["finished"] = time.strftime("%Y-%m-%d %H:%M:%S")
        out.write_text(json.dumps(document, indent=1) + "\n")

    print(f"{'metric':<44}" + "".join(f"{name[:22]:>24}" for name in names))
    for metric, unit in units.items():
        cells = []
        for name in names:
            parent, change = (
                document["workloads"][name][side].get(metric)
                for side in ("parent", "change")
            )
            cells.append(f"{_cell(parent):>11} {_cell(change):>11} ")
        print(f"{metric:<44}" + "".join(cells) + f" {unit}")
    failed = False
    for name in names:
        for key in ("counts_differ", "collector_counts_differ"):
            if document[key][name]:
                print(f"{name}: {key}: {', '.join(document[key][name])}")
        failed |= bool(document["counts_differ"][name])
    print(f"written to {out}")
    return 1 if failed else 0


def _cell(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
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
    if args.traced:
        return take_traced(trees, names, manifest, args.out)

    document = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "run_seconds": manifest["run_seconds"],
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "pairs": {},
        "summary": {},
    }
    for name in names:
        runs = alternate(
            args.pairs,
            lambda side, i: invoke(
                trees[side], name, i, manifest["run_seconds"]
            ),
            name,
        )
        document["pairs"][name] = runs
        summary = summarise_runs(runs, manifest["end_to_end"])
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
