"""Which functions under ``src/repro`` does no run call?

    python3 docs/results/reach.py [--jobs 2]
        trace every invocation below, rewrite docs/results/unreached.json
    python3 docs/results/reach.py --check [--jobs 2]
        trace again and exit 1 unless unreached.json still holds exactly
        the functions no run calls

The runs are every CLI command and the flags that change its path,
the examples, ``benchmarks/e2e/run.py --smoke`` and the paper benches
(``pytest benchmarks --ignore=benchmarks/e2e`` at
``REPRO_BENCH_SCALE=0.1``).  The test suite is not a run.  Each is a
fresh process at smoke scale; the four workloads at full scale reach
nothing that smoke scale does not.

A call-level hook (``sys.setprofile`` and ``threading.setprofile``,
installed by a ``sitecustomize.py`` put first on ``PYTHONPATH``) notes
every code object under ``src/repro`` that is entered, in every
process: forked shard workers and the benchmark's re-executed
children included.  Shard workers are killed at shutdown, so each
process rewrites its list atomically every 0.2 s as well as on exit.
The benches run under pytest-benchmark, which resets the profile
function; the hook pins ``sys.setprofile`` against that.

The functions are those the AST of ``src/repro`` defines (``def`` and
``async def``, nested ones as ``outer.<locals>.inner``); a function is
reached when a code object with its file and first line was entered.
``unreached.json`` lists each one no run reaches with the verdict
``keep`` and a category:

``a``  fault handling: runs only when something fails or is injected
``b``  the paper's rule language and query API (docs/rtec.md)
``c``  a seam docs/extending.md names and a test substitutes
``d``  owned elsewhere: the frozen oracle, a name the benchmark
       imports or wraps, a form a test compares against

A rewrite keeps the category and reason of every entry that is still
unreached and leaves them empty for new ones, which ``--check`` and
``tests/test_reach_list.py`` then refuse until someone decides.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LIST = Path(__file__).resolve().parent / "unreached.json"
CATEGORIES = ("a", "b", "c", "d")

SITECUSTOMIZE = '''
import atexit
import os
import sys
import threading
import time

_PACKAGE = os.environ["REPRO_REACH_PACKAGE"]
_OUT = os.environ["REPRO_REACH_OUT"]
_codes = {}
_reached = set()
_lock = threading.Lock()
_dirty = [False]


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            # Holding the code object keeps its id from being reused.
            _codes[id(code)] = code
            path = os.path.realpath(code.co_filename)
            if path.startswith(_PACKAGE):
                _reached.add(
                    f"{os.path.relpath(path, _PACKAGE)}:{code.co_firstlineno}"
                )
                _dirty[0] = True


def _flush():
    with _lock:
        if not _dirty[0]:
            return
        _dirty[0] = False
        target = os.path.join(_OUT, f"{os.getpid()}.json")
        tmp = f"{target}.tmp"
        with open(tmp, "w") as handle:
            handle.write("\\n".join(sorted(_reached)))
        os.replace(tmp, target)


def _flusher():
    while True:
        time.sleep(0.2)
        _flush()


def _start_flusher():
    threading.Thread(target=_flusher, daemon=True).start()


def _wrap_bootstrap():
    from multiprocessing import process

    bootstrap = process.BaseProcess._bootstrap

    def traced_bootstrap(self, *args, **kwargs):
        try:
            return bootstrap(self, *args, **kwargs)
        finally:
            _flush()

    process.BaseProcess._bootstrap = traced_bootstrap


_set_profile = sys.setprofile
threading.setprofile(_hook)
_set_profile(_hook)
sys.setprofile = lambda function: None
_wrap_bootstrap()
atexit.register(_flush)
os.register_at_fork(after_in_child=_start_flusher)
_start_flusher()
'''

SMALL = [
    "--seed", "3", "--grid", "10", "10", "--intersections", "25",
    "--buses", "20", "--lines", "4", "--duration", "900",
]
CITY = ["--duration", "1800", "--seed", "7"]


def _cli(*args) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _example(name: str, *args) -> list[str]:
    return [sys.executable, str(ROOT / "examples" / name), *args]


#: Chains of ``(argv, extra environment)``; a chain runs in order (a
#: later command reads what an earlier one wrote), chains in parallel.
#: ``{work}`` in an argument is the chain's scratch directory.
INVOCATIONS: tuple[tuple[tuple[list[str], dict], ...], ...] = (
    (
        (_cli("generate", *SMALL, "--out", "{work}/s.jsonl"), {}),
        (_cli("recognise", *SMALL), {}),
        (_cli("recognise", *SMALL, "--input", "{work}/s.jsonl"), {}),
        (_cli("recognise", *SMALL, "--adaptive", "--noisy-variant", "crowd"), {}),
    ),
    (
        (_cli("run", *CITY, "--map"), {}),
        (_cli("run", *SMALL, "--static"), {}),
        (_cli("run", *CITY, "--sharded"), {}),
        (_cli("run", *CITY, "--faults", "chaos_day"), {}),
        (_cli("run", *CITY, "--checkpoint-dir", "{work}/ck",
              "--checkpoint-interval", "2"), {}),
        (_cli("run", "--resume", "{work}/ck"), {}),
    ),
    (
        (_cli("metrics", *CITY), {}),
        (_cli("metrics", *SMALL, "--json", "{work}/m.json"), {}),
        (_cli("metrics", *CITY, "--sharded"), {}),
        (_cli("metrics", *CITY, "--streams"), {}),
        (_cli("metrics", *CITY, "--faults", "blackout_scats"), {}),
        (_cli("map", *SMALL, "--svg", "{work}/map.svg"), {}),
        (_cli("crowd"), {}),
        (_cli("faults"), {}),
        (_cli("faults", "--show", "chaos_day"), {}),
        (_cli("faults", "--dlq-demo"), {}),
        (_cli("scenarios", "list"), {}),
        (_cli("scenarios", "show", "grid_rush"), {}),
    ),
    ((_cli("scenarios", "run", "--json", "{work}/matrix.json",
           "--report", "{work}/matrix.html"), {}),),
    tuple(
        (
            _example(path.name, *{
                "chaos_day.py": ("--smoke",),
                "scats_reliability.py": ("{work}/report.html",),
            }.get(path.name, ())),
            {},
        )
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    ((
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"],
        {},
    ),),
    ((
        [
            sys.executable, "-m", "pytest", str(ROOT / "benchmarks"),
            "--ignore", str(ROOT / "benchmarks" / "e2e"), "-q",
            "-p", "no:cacheprovider",
        ],
        {"REPRO_BENCH_SCALE": "0.1"},
    ),),
)


# -- tracing -----------------------------------------------------------
def _run_chain(chain, hook_dir: Path, out: Path, work: Path) -> list[str]:
    """Run one chain; returns one line per command that failed."""
    failures = []
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hook_dir), str(SRC)]),
        "REPRO_REACH_PACKAGE": str(PACKAGE.resolve()),
        "REPRO_REACH_OUT": str(out),
    }
    work.mkdir(parents=True, exist_ok=True)
    for argv, extra in chain:
        argv = [arg.replace("{work}", str(work)) for arg in argv]
        started = time.perf_counter()
        done = subprocess.run(
            argv, cwd=ROOT, env={**env, **extra},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        shown = " ".join(Path(argv[1]).name if i == 1 else a
                         for i, a in enumerate(argv[1:], 1))
        print(f"  {time.perf_counter() - started:6.1f} s  {shown}", flush=True)
        if done.returncode != 0:
            failures.append(
                f"{shown}: exit {done.returncode}\n{done.stderr[-2000:]}"
            )
    return failures


def trace(jobs: int) -> set[str]:
    """Every ``file:first line`` under ``src/repro`` some run entered."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch)
        hook_dir, out = scratch / "hook", scratch / "out"
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            failures = [
                line
                for lines in pool.map(
                    lambda item: _run_chain(
                        item[1], hook_dir, out, scratch / f"work{item[0]}"
                    ),
                    enumerate(INVOCATIONS),
                )
                for line in lines
            ]
        if failures:
            raise SystemExit("a traced run failed:\n" + "\n".join(failures))
        return {
            line
            for dump in out.glob("*.json")
            for line in dump.read_text().splitlines()
            if line
        }


# -- what the source defines -------------------------------------------
def functions(package: Path = PACKAGE) -> dict[tuple[str, str], dict]:
    """``(file, qualname) -> {"first": line, "lines": [def, end]}`` for
    every function the package defines.

    ``first`` is the line a code object reports: the first decorator's,
    if there is one.  A name defined twice in one scope (a property's
    setter) gets ``#2`` appended.
    """
    found: dict[tuple[str, str], dict] = {}

    def visit(node, prefix: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                key, n = (file, qualname), 1
                while key in found:
                    n += 1
                    key = (file, f"{qualname}#{n}")
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                found[key] = {
                    "first": first,
                    "lines": [child.lineno, child.end_lineno],
                }
                visit(child, qualname + ".<locals>.", file)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", file)
            else:
                visit(child, prefix, file)

    for path in sorted(package.rglob("*.py")):
        file = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(), str(path)), "", file)
    return found


def unreached(reached: set[str]) -> list[dict]:
    return [
        {"file": file, "qualname": qualname, "lines": info["lines"]}
        for (file, qualname), info in functions().items()
        if f"{file}:{info['first']}" not in reached
    ]


# -- the list ----------------------------------------------------------
def load_list() -> list[dict]:
    return json.loads(LIST.read_text()) if LIST.exists() else []


def check(found: list[dict], listed: list[dict]) -> list[str]:
    """What differs between the traced and the committed list."""
    defined = set(functions())
    now = {(e["file"], e["qualname"]) for e in found}
    kept = {(e["file"], e["qualname"]) for e in listed}
    problems = [
        f"{f}::{q} is not called by any run and not in {LIST.name}"
        for f, q in sorted(now - kept)
    ]
    problems += [
        f"{f}::{q} is listed but no longer exists"
        for f, q in sorted(kept - defined)
    ]
    problems += [
        f"{f}::{q} is listed but a run now calls it"
        for f, q in sorted((kept & defined) - now)
    ]
    problems += [
        f"{e['file']}::{e['qualname']} has no category from "
        f"{', '.join(CATEGORIES)} or no reason"
        for e in listed
        if e.get("category") not in CATEGORIES or not e.get("reason")
    ]
    return problems


def merge(found: list[dict], listed: list[dict]) -> list[dict]:
    """``found`` with the decisions already taken on its entries."""
    decided = {(e["file"], e["qualname"]): e for e in listed}
    merged = []
    for entry in found:
        old = decided.get((entry["file"], entry["qualname"]), {})
        merged.append({
            **entry,
            "verdict": "keep",
            "category": old.get("category", ""),
            "reason": old.get("reason", ""),
        })
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {LIST.name} instead of rewriting it",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="chains of invocations run at once (default 2)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    found = unreached(trace(args.jobs))
    total = len(functions())
    print(
        f"{len(found)} of {total} functions under src/repro are called "
        f"by no run ({time.perf_counter() - started:.0f} s)"
    )
    listed = load_list()
    if args.check:
        problems = check(found, listed)
        for problem in problems:
            print(f"REACH: {problem}", file=sys.stderr)
        return 1 if problems else 0
    LIST.write_text(json.dumps(merge(found, listed), indent=1) + "\n")
    print(f"wrote {LIST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
