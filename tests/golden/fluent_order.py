"""Fluent-order digests: the order a snapshot lists fluent groundings in.

Library and script, like ``stream_identity.py``: running

    PYTHONPATH=src python -m tests.golden.fluent_order --record

re-records ``tests/golden/fluent_order_digests.json`` from the current
tree, one child process per hash seed; without ``--record`` the script
prints this process's digests as JSON (what the children run).

Golden traces compare fluents as dicts, without regard to order, yet
the order is output: ``RecognitionLog.add`` hands fresh episodes to
the alerts and to the crowd's shared RNG in the iteration order of
``snapshot.fluents[name]`` (ROADMAP finding F5), and the order of the
engine's inertia cache ``_fluent_cache[name]`` is where that order
comes from at the next query.  Both depend on ``PYTHONHASHSEED`` —
they are iterated from a ``set`` of string-keyed tuples — so they are
recorded under two hash seeds.  Per engine class, per recorded
``(window, step, adaptive)`` pair of the golden small city, the digest
covers every query's fluent names in snapshot order and, per name, the
snapshot's groundings and the cache's groundings, in order.  The
checked-in file was recorded from the tree whose interval assembly
grouped points into per-key lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
from tests.golden.record_golden import (
    CONFIGS,
    HORIZON,
    build_engine,
    golden_scenario,
)

DIGESTS_PATH = Path(__file__).parent / "fluent_order_digests.json"
ROOT = Path(__file__).resolve().parents[2]

#: The hash seeds the file is recorded under.
HASH_SEEDS = ("0", "1")

ENGINES = {"RTEC": RTEC, "ReferenceRTEC": ReferenceRTEC}


def config_id(config) -> str:
    suite = "adaptive" if config["adaptive"] else "static"
    return f"w{config['window']}-s{config['step']}-{suite}"


def order_digests() -> dict:
    """``{engine: {config: {"entries", "sha256"}}}`` for this process's
    hash seed: ``entries`` counts the snapshot groundings digested."""
    scenario = golden_scenario()
    data = scenario.generate(0, HORIZON + 600)
    events, facts = list(data.events), list(data.facts)
    out: dict = {}
    for engine_name, engine_class in ENGINES.items():
        for config in CONFIGS:
            engine = build_engine(scenario, **config, engine_class=engine_class)
            engine.feed(events, facts)
            digest = hashlib.sha256()
            entries = 0
            for snapshot in engine.run(HORIZON):
                for name, by_key in snapshot.fluents.items():
                    cached = engine._fluent_cache.get(name, {})
                    entries += len(by_key)
                    line = [snapshot.query_time, name, list(by_key), list(cached)]
                    digest.update(json.dumps(line).encode() + b"\n")
            out.setdefault(engine_name, {})[config_id(config)] = {
                "entries": entries,
                "sha256": digest.hexdigest(),
            }
    return out


def digests_under(hash_seed: str) -> dict:
    """:func:`order_digests` from a child process under ``hash_seed``."""
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    }
    done = subprocess.run(
        [sys.executable, "-m", "tests.golden.fluent_order"],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def compute_digests() -> dict:
    """Every digest of the committed file, from the current tree."""
    return {seed: digests_under(seed) for seed in HASH_SEEDS}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    if parser.parse_args().record:
        DIGESTS_PATH.write_text(
            json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {DIGESTS_PATH}")
    else:
        print(json.dumps(order_digests()))
