"""The end-to-end, layer-attributed benchmark.  See README.md.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
        one measured invocation; the last stdout line is the result
        object (this is the form BENCHMARK.json's command is run in)
    python3 benchmarks/e2e/run.py [--seed S] [--repeats 3] [--workload W] [--smoke]
        a set: per workload ``--repeats`` untraced invocations and one
        traced, each a fresh child process; prints every metric, runs
        the harness self-checks, writes out/results-*.json
    python3 benchmarks/e2e/run.py --record-reference [--seed S] [--workload W] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``.

    Alert order, crowd outcomes and rewards change with the hash seed,
    so an unpinned process does different work each time (the CE set
    does not).  ``exec`` replaces this process; nothing is left behind.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def import_program():
    """Import the program from this checkout's ``src/``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    return measure, workloads


# -- one invocation ----------------------------------------------------
def run_single(args) -> int:
    pin_hash_seed()
    manifest = load_manifest()
    measure, workloads = import_program()
    if args.workload not in workloads.BY_NAME:
        raise SystemExit(f"unknown workload {args.workload!r}")
    result, problems = measure.measure(
        workloads.BY_NAME[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
    )
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    problems += name_problems(set(units), set(result["metrics"]))
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name, "undeclared")}
        for name, value in result["metrics"].items()
    }
    measure.print_metrics(result)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(json.dumps(result))
    return 0


def name_problems(declared: set, printed: set) -> list[str]:
    """Every printed name is declared and every declared name printed."""
    problems = [
        f"metric {name!r} is printed but not declared in BENCHMARK.json"
        for name in sorted(printed - declared)
    ]
    problems += [
        f"metric {name!r} is declared in BENCHMARK.json but not printed"
        for name in sorted(declared - printed)
    ]
    problems += [
        f"metric name {name!r} does not match {NAME.pattern}"
        for name in sorted(printed | declared)
        if not NAME.match(name)
    ]
    return problems


# -- a set of invocations ----------------------------------------------
def child(workload: str, seed: int, seconds: int, trace: int, smoke: bool):
    """One fresh child process; returns its result object or ``None``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if trace:
        for line in lines:
            if line.startswith("#"):
                print(line)
    if done.returncode != 0 or not lines:
        print(
            f"{workload}: child exited with code {done.returncode}",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def run_set(args) -> int:
    manifest = load_manifest()
    declared = [w["name"] for w in manifest["workloads"]]
    names = [args.workload] if args.workload else declared
    seconds = 0 if args.smoke else manifest["run_seconds"]
    problems: list[str] = []
    results: dict = {}
    for name in names:
        if name not in declared:
            raise SystemExit(f"unknown workload {name!r}")
        print(f"== {name}", flush=True)
        untraced = [
            child(name, args.seed, seconds, 0, args.smoke)
            for _ in range(args.repeats)
        ]
        traced = child(name, args.seed, seconds, 1, args.smoke)
        if traced is None or None in untraced:
            problems.append(f"{name}: an invocation failed")
            continue
        runs = untraced + [traced]
        entry = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        for metric in manifest["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in untraced]
            entry["end_to_end"][metric["name"]] = {
                **summarise(values), "unit": metric["unit"],
            }
        if not entry["correct"]:
            problems.append(f"{name}: output differs from the reference")
        if entry["failed"]:
            problems.append(f"{name}: failed_share = {entry['failed_share']:.4g}")
        results[name] = entry
        print_entry(entry)
        traced_wall = (
            traced["metrics"]["trace.run_wall_s"]["value"]
            / traced["metrics"]["runtime.slowdown"]["value"]
        )
        untraced_wall = entry["end_to_end"]["run_wall_s"]["median"]
        print(
            f"traced run_wall_s {traced_wall:.3f} reference s is "
            f"{traced_wall / untraced_wall:.3f} of the untraced median "
            f"{untraced_wall:.3f} s (n={args.repeats})"
        )

    out = Path(args.out) if args.out else HERE / "out" / (
        f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "smoke": args.smoke,
                "repeats": args.repeats,
                "workloads": results,
            },
            indent=1,
        )
    )
    print(f"results written to {out}")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def print_entry(entry: dict) -> None:
    print(f"{'end-to-end metric':<22}{'median':>14}{'min':>14}{'max':>14}  n  unit")
    for name, m in entry["end_to_end"].items():
        print(
            f"{name:<22}{m['median']:>14.6g}{m['min']:>14.6g}"
            f"{m['max']:>14.6g}  {m['n']}  {m['unit']}"
        )
    print(
        f"{'failed_share':<22}{entry['failed_share']:>14.6g}"
        f"  ({entry['failed']} of {entry['attempted']} engine-steps; "
        f"reference {'matches' if entry['correct'] else 'DIFFERS'})"
    )
    print("per-layer metric (one traced run)")
    for name, m in entry["per_layer"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<44}{value:>14}  {m['unit']}")
    sys.stdout.flush()


# -- references --------------------------------------------------------
def record_reference(args) -> int:
    """Record digests from the oracle configuration, never from the
    path under test; refuse when the default configuration disagrees."""
    pin_hash_seed()
    measure, workloads = import_program()
    from repro.ioutils import atomic_write_json

    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    scale = "smoke" if args.smoke else "full"
    status = 0
    for name in names:
        workload = workloads.BY_NAME[name]
        start, end = workload.span(args.smoke)
        requested = (
            range(len(measure.INPUT_SEEDS))
            if args.seed is None
            else [args.seed]
        )
        for seed in sorted(
            {measure.input_seed(workload, s) for s in requested}
        ):
            scratch = measure.scratch_dir()
            try:
                oracle = workload.oracle(seed, scratch).system.run(start, end)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            expected = measure.fingerprint_digest(oracle)
            default = measure.replay(workload, seed, args.smoke)[0]
            if default.digest != expected:
                print(
                    f"{name} seed {seed} ({scale}): the default "
                    f"configuration ({default.digest}) disagrees with the "
                    f"oracle ({expected}); not recorded",
                    file=sys.stderr,
                )
                status = 1
                continue
            references = measure.load_references()
            references.setdefault(scale, {}).setdefault(name, {})[
                str(seed)
            ] = expected
            atomic_write_json(
                measure.REFERENCES, references, indent=1, sort_keys=True
            )
            print(f"{name} seed {seed} ({scale}): {expected}", flush=True)
    return status


# -- compare -----------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: the two medians, B as a ratio
    of A, the bound, and ``ok`` / ``regressed`` / ``unresolved``."""
    manifest = load_manifest()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = False
    print(
        f"{'workload':<22}{'metric':<18}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}{'bound':>7}  verdict"
    )
    for name in a:
        if name not in b:
            print(f"{name:<22}missing from {path_b}")
            continue
        for metric in manifest["end_to_end"]:
            ma = a[name]["end_to_end"][metric["name"]]
            mb = b[name]["end_to_end"][metric["name"]]
            verdict = verdict_of(ma, mb, metric)
            regressed |= verdict == "regressed"
            print(
                f"{name:<22}{metric['name']:<18}{ma['median']:>12.5g}"
                f"{mb['median']:>12.5g}{mb['median'] / ma['median']:>8.3f}"
                f"{metric['bound']:>7.2f}  {verdict}"
            )
        fa, fb = a[name]["failed_share"], b[name]["failed_share"]
        verdict = "regressed" if fb > fa else "ok"
        regressed |= verdict == "regressed"
        print(
            f"{name:<22}{'failed_share':<18}{fa:>12.5g}{fb:>12.5g}"
            f"{'':>8}{'0':>7}  {verdict}"
        )
    return 1 if regressed else 0


def verdict_of(ma: dict, mb: dict, metric: dict) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    if metric["name"] == "setup_s":
        # A quarter of a 0.2 s set-up is scheduler noise: the bound is
        # max(25%, 0.3 s).
        bound = max(bound, 0.3 / ma["median"])
    worse_by = sign * (mb["median"] - ma["median"]) / ma["median"]
    spread = max(
        (m["max"] - m["min"]) / m["median"] for m in (ma, mb)
    )
    if spread > bound:
        b_wins = (
            max(mb["values"]) < min(ma["values"])
            if sign > 0
            else min(mb["values"]) > max(ma["values"])
        )
        return "ok" if b_wins else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record_reference:
        return record_reference(args)
    if args.seed is None:
        args.seed = 0
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_single(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
