"""The benchmark's result line is strict JSON and the last line.

``benchmarks/e2e/run.py`` in its single-invocation form prints the
result object last, and whatever reads it takes the last stdout line
as that object.  ``json.dumps`` writes ``NaN`` / ``Infinity`` for a
non-finite metric, which no strict JSON reader accepts, and anything a
worker, thread or exit hook prints after the line hides it.  One
``dublin_rush`` smoke invocation untraced and one traced (a few seconds
each) must exit 0 with a last line that parses as strict JSON and
names its metrics, and so must ``dublin_rush_sharded2``'s, whose forked
shard workers share the benchmark process's stdout.  Select only these
with ``pytest -m bench_smoke``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def _assert_last_line_is_a_result(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", "0", "--smoke",
            "--trace", trace,
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = done.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    result = json.loads(last, parse_constant=_refuse)
    assert result["correct"] is True
    assert result["metrics"]


@pytest.mark.bench_smoke
@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_smoke_invocation_ends_with_a_strict_json_result(trace):
    _assert_last_line_is_a_result("dublin_rush", trace)


@pytest.mark.bench_smoke
@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_sharded_smoke_invocation_ends_with_a_strict_json_result(trace):
    _assert_last_line_is_a_result("dublin_rush_sharded2", trace)
