"""F4, pinned: on the benchmark's storm the default engine recognises
what the reference engine does.

``benchmarks/e2e/storm_chaos_durable.json`` under ``chaos_day`` delays
half the bus SDEs by minutes.  While the engine reused output points
across the window overlap it reported a ``busCongestion`` episode the
reference configuration (``incremental=False, compiled_rules=False``)
does not — at SCATS0054 from t = 27791 with system seed 214, later on
215 and 218 — and alerts and crowd outcomes diverged from there.

Which crowd answers come back still moves with the hash seed (ROADMAP
F5), and with them whether a given system seed shows the divergence:
the runs happen in child processes pinned to the hash seed the
benchmark pins, under which all three seeds fail at the last commit
that reused points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.chaos

STORM = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "storm_chaos_durable.json"
)

#: 18 of the document's 60 steps: every seed below has diverged by
#: then (214 at t = 27791, the others within the next five steps).
END = 28080
SEEDS = (214, 215, 218)

CHILD = """
import json, sys
from dataclasses import replace
from repro.scenarios import ScenarioSpec, ce_fingerprint, compile_scenario
from repro.system import SystemConfig, UrbanTrafficSystem

spec = ScenarioSpec.from_mapping(json.load(open(sys.argv[1])))
end, reference = int(sys.argv[2]), sys.argv[3] == "reference"
prints = {}
for seed in sys.argv[4:]:
    config = SystemConfig(seed=int(seed), **spec.system_overrides)
    if reference:
        config = replace(config, incremental=False, compiled_rules=False)
    system = UrbanTrafficSystem(compile_scenario(spec), config)
    prints[seed] = ce_fingerprint(system.run(spec.start, end))
json.dump(prints, sys.stdout)
"""


def test_default_engine_agrees_with_the_reference_on_the_storm():
    # One child per configuration, side by side: the reference engine
    # is the slow half, and neither waits for the other.
    children = [
        subprocess.Popen(
            [
                sys.executable, "-c", CHILD, str(STORM), str(END),
                configuration, *map(str, SEEDS),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONHASHSEED": "0",
                "PYTHONPATH": os.pathsep.join(filter(None, sys.path)),
            },
        )
        for configuration in ("default", "reference")
    ]
    prints = []
    with children[0], children[1]:
        for child in children:
            out, err = child.communicate(timeout=600)
            assert child.returncode == 0, err[-2000:]
            prints.append(json.loads(out))
    default, reference = prints
    assert sorted(default) == sorted(reference) == sorted(map(str, SEEDS))
    for seed in default:
        assert default[seed]["ce"] and default[seed]["alerts"], seed
        assert default[seed] == reference[seed], f"system seed {seed}"
