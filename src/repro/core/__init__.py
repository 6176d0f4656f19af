"""RTEC-style complex event processing (the paper's Section 4).

Public surface:

* :mod:`repro.core.intervals` — maximal-interval algebra (Table 1's
  ``union_all`` / ``intersect_all`` / ``relative_complement_all``).
* :mod:`repro.core.events` — SDE / fluent-fact / CE-occurrence records.
* :mod:`repro.core.rules` — definition DSL (`SimpleFluent`,
  `StaticFluent`, `DerivedEvent`) and the rule evaluation context.
* :mod:`repro.core.rtec` — the windowed recognition engine.
* :mod:`repro.core.reference` — the reference engine the frozen
  benchmark's oracle selects (the window rebuilt from objects per
  query, nothing compiled); not re-exported here.
* :mod:`repro.core.columns` — columnar (struct-of-arrays) SDE batches
  and the window store the working memory keeps them in.
* :mod:`repro.core.compiled` — vectorised evaluators for the hot rule
  bodies.
* :mod:`repro.core.traffic` — the Dublin traffic CE definitions.
"""

from .columns import (
    ColumnSpec,
    EventColumns,
    FactColumns,
    SDEColumns,
)
from .compiled import CompiledRule
from .events import Event, FluentFact, Occurrence
from .intervals import (
    IntervalList,
    count_threshold,
    intersect_all,
    relative_complement_all,
    union_all,
)
from .rtec import RTEC, FreshResults, RecognitionLog, RecognitionSnapshot
from .rules import (
    Definition,
    DerivedEvent,
    FunctionalEvent,
    FunctionalSimpleFluent,
    FunctionalStaticFluent,
    FunctionalValuedFluent,
    RuleContext,
    SimpleFluent,
    StaticFluent,
    ValuedFluent,
    stratify,
)

__all__ = [
    "Event",
    "FluentFact",
    "Occurrence",
    "ColumnSpec",
    "EventColumns",
    "FactColumns",
    "SDEColumns",
    "CompiledRule",
    "IntervalList",
    "union_all",
    "intersect_all",
    "relative_complement_all",
    "count_threshold",
    "RTEC",
    "RecognitionSnapshot",
    "RecognitionLog",
    "FreshResults",
    "Definition",
    "DerivedEvent",
    "SimpleFluent",
    "StaticFluent",
    "FunctionalEvent",
    "FunctionalSimpleFluent",
    "FunctionalStaticFluent",
    "FunctionalValuedFluent",
    "ValuedFluent",
    "RuleContext",
    "stratify",
]
