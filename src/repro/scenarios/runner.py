"""Run compiled scenarios through the system and check their envelopes.

One :func:`run_scenario` call performs the whole acceptance ritual for
a spec: compile, run the baseline pipeline, run whichever parity
variants the envelope demands — the reference engine, and the sharded
runtime with the four regions packed onto two engines — compare their
CE output against the baseline, and evaluate every envelope clause.
:func:`run_matrix` does it for a whole library and aggregates.

Parity is compared on a *region-agnostic* fingerprint (CE occurrences
merged across engine keys, plus alerts, crowd outcomes and rewards):
the two-engine grouping changes the log keys but must not change what
the system recognised or told the operator.  The ``sharded2`` variant
is checked against an in-process run with the *same* grouping — a
grouping can legitimately change cross-entity CEs (e.g. the
``congestionInTheMake`` clusters), so the claim pinned here is "the
process topology does not matter", never "the grouping does not
matter".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..system.pipeline import SystemConfig, SystemReport, UrbanTrafficSystem
from .compiler import compile_scenario
from .envelope import EnvelopeResult, check_envelope
from .spec import ScenarioSpec

__all__ = [
    "ScenarioRun",
    "MatrixResult",
    "ce_fingerprint",
    "run_scenario",
    "run_matrix",
    "GROUPS2",
]

#: The two-engine packing used by the ``sharded2`` parity variant.
GROUPS2: tuple[tuple[str, ...], ...] = (
    ("central", "north"),
    ("west", "south"),
)


def ce_fingerprint(report: SystemReport) -> dict:
    """Everything a run *produced*, merged across engine keys.

    Engine keys differ between a four-engine and a two-engine run of
    the same scenario, so CE occurrences are flattened into one global
    set; alerts, crowd outcomes and rewards are engine-agnostic
    already.  Timings, shard bookkeeping and metrics namespaces are
    deliberately excluded — they describe *how* the run executed.
    """
    occurrences = set()
    for log in report.logs.values():
        for snapshot in log.snapshots:
            for name, occs in snapshot.occurrences.items():
                for occ in occs:
                    occurrences.add((name, repr(occ.key), occ.time))
    return {
        "ce": sorted(occurrences),
        "alerts": [repr(alert) for alert in report.console.alerts],
        "degraded": repr(sorted(report.degraded.items())),
        "crowd": (
            report.crowd_resolutions,
            report.crowd_unresolved,
            report.crowd_suppressed,
        ),
        "rewards": repr(sorted(report.rewards.items())),
    }


@dataclass
class ScenarioRun:
    """Everything one scenario acceptance run produced."""

    spec: ScenarioSpec
    report: SystemReport
    system: UrbanTrafficSystem
    envelope: EnvelopeResult
    #: Variant name -> matched-baseline verdict, for every variant the
    #: envelope demanded.
    parity: dict = field(default_factory=dict)
    #: Simulated seconds the run covered.
    duration: int = 0

    @property
    def passed(self) -> bool:
        return self.envelope.passed


@dataclass
class MatrixResult:
    """Aggregate of a scenario-matrix run."""

    runs: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(run.passed for run in self.runs)

    @property
    def n_failed(self) -> int:
        return sum(0 if run.passed else 1 for run in self.runs)

    def format(self) -> str:
        """Every envelope verdict plus the ``N/M scenarios passed``
        summary line."""
        lines = []
        for run in self.runs:
            lines.append(run.envelope.format())
        lines.append(
            f"matrix: {len(self.runs) - self.n_failed}/{len(self.runs)} "
            "scenarios passed"
        )
        return "\n".join(lines)


def _base_config(spec: ScenarioSpec) -> SystemConfig:
    return SystemConfig(seed=spec.seed, **spec.system_overrides)


def _run_variant(
    spec: ScenarioSpec, config: SystemConfig, start: int, end: int
) -> tuple[UrbanTrafficSystem, SystemReport]:
    """One complete pipeline run of the compiled scenario.

    Each variant gets a freshly compiled scenario object so no
    simulator or cache state can leak between legs — determinism of
    the compile itself is pinned by the round-trip property test.
    """
    system = UrbanTrafficSystem(compile_scenario(spec), config)
    report = system.run(start, end)
    return system, report


def run_scenario(
    spec: ScenarioSpec,
    *,
    duration: Optional[int] = None,
    check_parity: bool = True,
) -> ScenarioRun:
    """Run one scenario's full acceptance check.

    ``duration`` overrides the spec's simulated span (the tier-1 smoke
    test shrinks it); ``check_parity=False`` skips the extra variant
    runs and marks their clauses unchecked (failing them), for quick
    envelope-only iterations.
    """
    start = spec.start
    end = start + (spec.duration if duration is None else duration)
    config = _base_config(spec)
    system, report = _run_variant(spec, config, start, end)
    baseline = ce_fingerprint(report)

    parity: dict = {}
    if check_parity:
        for variant in spec.envelope.parity:
            if variant == "reference":
                _, other = _run_variant(
                    spec,
                    replace(config, incremental=False, compiled_rules=False),
                    start,
                    end,
                )
                parity[variant] = ce_fingerprint(other) == baseline
            elif variant == "sharded2":
                # Both legs share the same two-engine grouping: the
                # comparison isolates the process topology.
                _, grouped = _run_variant(
                    spec, replace(config, region_groups=GROUPS2), start, end
                )
                _, sharded = _run_variant(
                    spec,
                    replace(
                        config, region_groups=GROUPS2, sharded=True
                    ),
                    start,
                    end,
                )
                parity[variant] = (
                    ce_fingerprint(sharded) == ce_fingerprint(grouped)
                )

    envelope = check_envelope(
        spec.envelope,
        report,
        scenario=spec.name,
        run_end=end,
        parity=parity if check_parity else None,
    )
    return ScenarioRun(
        spec=spec,
        report=report,
        system=system,
        envelope=envelope,
        parity=parity,
        duration=end - start,
    )


def run_matrix(
    specs,
    *,
    duration: Optional[int] = None,
    check_parity: bool = True,
    progress=None,
) -> MatrixResult:
    """Run every spec's acceptance check and aggregate the verdicts.

    ``progress`` is an optional callable invoked with each completed
    :class:`ScenarioRun` (the CLI prints envelope tables as they
    land).
    """
    result = MatrixResult()
    for spec in specs:
        run = run_scenario(
            spec, duration=duration, check_parity=check_parity
        )
        result.runs.append(run)
        if progress is not None:
            progress(run)
    return result
