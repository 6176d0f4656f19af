"""The Section 3 Streams graph at the paper's density: the default city
(942 buses, ~966 sensors), 07:00-07:15, default rules.

    PYTHONHASHSEED=0 PYTHONPATH=src python docs/results/pr22_graph_density.py [--profile]

Prints the direct loop's set-up and run time over the same span, then
the graph's generate / build / run time, the number of queries the four
regions ran and how often the engines' admission entry points were
called.  Runs on the parent of PR 22 (``build_paper_topology(scenario,
data)`` and ``paper.flush``), from PR 22 on
(``build_paper_topology(system, data)``, no flush) and from the graph
of step blocks on (``build_paper_topology(system, start, end)``, which
generates the stream itself: "generate" then reads 0 and "build"
holds it): the numbers in docs/performance.md, "The §3 graph", are
this script on these trees.
"""

import cProfile
import inspect
import pstats
import sys
import time

from repro.core.columns import ColumnStore
from repro.core.window import WorkingMemory
from repro.dublin import DublinScenario, ScenarioConfig
from repro.streams import StreamRuntime
from repro.system import SystemConfig, UrbanTrafficSystem, build_paper_topology

START, END = 7 * 3600, 7 * 3600 + 900
calls = {"ColumnStore.admit": 0, "WorkingMemory.buffer_columns": 0}


def counted(cls, name):
    inner = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls[f"{cls.__name__}.{name}"] += 1
        return inner(*args, **kwargs)

    setattr(cls, name, wrapper)


counted(ColumnStore, "admit")
counted(WorkingMemory, "buffer_columns")

t0 = time.perf_counter()
direct = UrbanTrafficSystem(DublinScenario(ScenarioConfig(seed=0)), SystemConfig())
t1 = time.perf_counter()
direct.run(START, END)
t2 = time.perf_counter()
print(f"direct loop: set-up {t1 - t0:.2f} s, run {t2 - t1:.2f} s "
      f"(generation included), {calls}")
calls = dict.fromkeys(calls, 0)

scenario = DublinScenario(ScenarioConfig(seed=0))
params = inspect.signature(build_paper_topology).parameters
t0 = time.perf_counter()
data = None if "start" in params else scenario.generate(START, END)
t1 = time.perf_counter()
if "start" in params:
    system = UrbanTrafficSystem(scenario, SystemConfig())
    paper = build_paper_topology(system, START, END)
elif "system" in params:
    paper = build_paper_topology(
        UrbanTrafficSystem(scenario, SystemConfig()), data
    )
else:
    paper = build_paper_topology(scenario, data)
t2 = time.perf_counter()
profiler = cProfile.Profile() if "--profile" in sys.argv else None
if profiler:
    profiler.enable()
stats = StreamRuntime(paper.topology).run()
if hasattr(paper, "flush"):
    paper.flush(END)
if profiler:
    profiler.disable()
t3 = time.perf_counter()
if data is None:
    n_sdes = system.metrics.counter("ingest.events").value
queries = sum(len(p.log.snapshots) for p in paper.rtec_processors.values())
print(
    f"graph: generate {t1 - t0:.2f} s "
    f"({n_sdes if data is None else data.n_sdes} SDEs), build "
    f"{t2 - t1:.2f} s ({stats.items_ingested} items), run {t3 - t2:.2f} s "
    f"({stats.items_ingested / (t3 - t2):.0f} items/s), {queries} queries, "
    f"{calls}"
)
if profiler:
    pstats.Stats(profiler).sort_stats("tottime").print_stats(14)
