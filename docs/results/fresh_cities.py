"""``dublin_wm110`` on city seeds the benchmark never runs.

    python3 docs/results/fresh_cities.py PARENT_TREE CHANGE_TREE \\
        --out docs/results/prNN_fresh_cities.json

``dublin_wm110`` ignores ``--seed`` (one input, city seed 0), and
``--seed`` 10-19 of the other workloads map onto the same ten inputs as
0-9, so the benchmark has no input a change was not written against.
This replays ``dublin_wm110`` as each tree's own harness defines it —
its ``measure.replay``, unchanged — with only the city seed replaced:
ten alternating pairs by ``take_pairs.alternate``, pair ``i`` on city
seed ``CITY_SEEDS[i % 5]`` (so each city runs once with either tree
first), each replay a fresh process under ``PYTHONHASHSEED=0``.  It
records each replay's metrics (reference seconds) and CE digest, and
summarises the metrics by ``take_pairs.summarise_runs`` (choosing-metrics
guide, section 8).  Run by itself in a child, ``--replay TREE CITY``
prints one replay's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from take_pairs import alternate, summarise_runs

CITY_SEEDS = (11, 12, 13, 14, 15)


def replay(tree: Path, city: int) -> dict:
    """One replay in this process, from ``tree``'s harness and source."""
    sys.path[:0] = [str(tree / "benchmarks" / "e2e"), str(tree / "src")]
    import measure
    import workloads
    from repro.dublin.scenario import DublinScenario, ScenarioConfig

    workload = replace(
        workloads.BY_NAME["dublin_wm110"],
        scenario=lambda: DublinScenario(
            ScenarioConfig(seed=city, n_buses=450)
        ),
    )
    done, _, _ = measure.replay(workload, 0, False)
    return {"digest": done.digest, "slowdown": done.slowdown, **done.metrics}


def replay_in_child(tree: Path, city: int) -> dict:
    """:func:`replay` in a fresh process under ``PYTHONHASHSEED=0``."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--replay", str(tree), str(city),
        ],
        cwd=tree,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return {
        **json.loads(done.stdout.strip().splitlines()[-1]),
        "city_seed": city,
        "at": time.strftime("%H:%M:%S"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path, nargs="?")
    parser.add_argument("change_tree", type=Path, nargs="?")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--replay", nargs=2, metavar=("TREE", "CITY"))
    args = parser.parse_args(argv)
    if args.replay:
        tree, city = args.replay
        print(json.dumps(replay(Path(tree).resolve(), int(city))))
        return 0
    if not (args.parent_tree and args.change_tree and args.out):
        parser.error("PARENT_TREE, CHANGE_TREE and --out are required")
    trees = {
        "parent": args.parent_tree.resolve(),
        "change": args.change_tree.resolve(),
    }
    manifest = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    runs = alternate(
        2 * len(CITY_SEEDS),
        lambda side, i: replay_in_child(
            trees[side], CITY_SEEDS[i % len(CITY_SEEDS)]
        ),
        "dublin_wm110 (fresh cities)",
    )
    document = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "city_seeds": CITY_SEEDS,
        "started": started,
        "finished": time.strftime("%Y-%m-%d %H:%M:%S"),
        "pairs": runs,
        "same_digest": [
            p["digest"] == c["digest"]
            for p, c in zip(runs["parent"], runs["change"])
        ],
        "summary": summarise_runs(runs, manifest["end_to_end"]),
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for metric, s in document["summary"].items():
        print(
            f"{metric:<18}{s['parent']['median']:>11.5g}"
            f"{s['change']['median']:>11.5g}{s['change_over_parent']:>7.3f}"
            f"{s['wins']:>3}/{s['pairs']:<2}  {s['verdict']}"
        )
    print(f"same digest in {sum(document['same_digest'])} of "
          f"{len(document['same_digest'])} pairs; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
