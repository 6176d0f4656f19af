"""The committed list of functions no run reaches stays honest.

``docs/results/reach.py --check`` traces every CLI command, example,
e2e workload and paper bench and compares (the CI ``reach`` job).
This test needs no tracing: every entry of ``unreached.json`` must
name a function the source still defines, and carry one of the four
reasons a function may be kept for.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "docs" / "results"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", RESULTS / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_an_existing_function_and_a_reason():
    reach = _reach()
    defined = reach.functions()
    entries = json.loads((RESULTS / "unreached.json").read_text())
    assert entries
    for entry in entries:
        where = f"{entry['file']}::{entry['qualname']}"
        assert (entry["file"], entry["qualname"]) in defined, where
        assert entry["verdict"] == "keep", where
        assert entry["category"] in reach.CATEGORIES, where
        assert entry["reason"].strip(), where


def test_entries_are_unique():
    entries = json.loads((RESULTS / "unreached.json").read_text())
    keys = [(e["file"], e["qualname"]) for e in entries]
    assert len(keys) == len(set(keys))
