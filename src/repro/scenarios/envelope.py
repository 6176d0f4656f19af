"""Acceptance envelopes: what a scenario run is allowed to look like.

An envelope is the declarative half of a regression test.  Each
scenario in the library states, next to its generator knobs, the
behaviour it was designed to provoke — how many congestion CEs, how
many alerts of which kind, how slow recognition may get, which feeds
must show up in the degradation timeline — as tolerance *bands*
rather than exact values, so the pin survives harmless drift (a new
rule, a changed alert ordering) while still catching a scenario that
silently stopped exercising what it exists to exercise.

:func:`check_envelope` evaluates every clause against a
:class:`~repro.system.pipeline.SystemReport` and returns an
:class:`EnvelopeResult` of per-clause verdicts; the runner feeds those
into the CLI table, the HTML report and the pytest matrix.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any, Optional

__all__ = [
    "EnvelopeSpec",
    "Clause",
    "EnvelopeResult",
    "check_envelope",
    "PARITY_VARIANTS",
]

#: Execution-path variants an envelope may demand parity against the
#: baseline run.  ``reference`` runs the reference engine
#: (:class:`repro.core.reference.ReferenceRTEC`: every window rebuilt
#: from buffered objects, every rule body interpreted), ``sharded2``
#: the multi-process runtime with the four regions packed onto two
#: engines (checked against an in-process run with the same grouping).
PARITY_VARIANTS = ("reference", "sharded2")


def _band(name: str, value) -> tuple[int, int]:
    value = tuple(value)
    if len(value) != 2:
        raise ValueError(f"{name} must be a (lo, hi) band, got {value!r}")
    lo, hi = int(value[0]), int(value[1])
    if lo < 0 or lo > hi:
        raise ValueError(
            f"{name} must satisfy 0 <= lo <= hi, got {value!r}"
        )
    return (lo, hi)


@dataclass(frozen=True)
class EnvelopeSpec:
    """Tolerance bands for one scenario.

    Every field is optional; an absent field emits no clause.  Bands
    are inclusive ``(lo, hi)`` pairs on counts.
    """

    #: CE occurrence bands, keyed by CE name as reported by
    #: :meth:`SystemReport.total_occurrences` (e.g. ``"congestion"``,
    #: ``"congestionInTheMake"``, ``"suddenStop"``).
    occurrences: tuple[tuple[str, tuple[int, int]], ...] = ()
    #: Alert-count bands keyed by alert kind
    #: (:meth:`OperatorConsole.counts`), e.g. ``"congestion"``,
    #: ``"intersection_disagreement"``.
    alerts: tuple[tuple[str, tuple[int, int]], ...] = ()
    #: Upper bound on mean per-query recognition CPU time, in
    #: milliseconds (Figure 4's metric).
    max_mean_recognition_ms: Optional[float] = None
    #: Band on crowdsourcing resolutions (resolved disagreements).
    crowd_resolutions: Optional[tuple[int, int]] = None
    #: Feeds that must appear degraded, with bounds on total degraded
    #: seconds: ``(feed, min_s, max_s)``.  ``max_s`` may be ``None``
    #: (no upper bound).  Only meaningful under a fault profile.
    degraded: tuple[tuple[str, int, Optional[int]], ...] = ()
    #: Execution-path variants whose CE output must match the baseline
    #: run exactly (see :data:`PARITY_VARIANTS`).
    parity: tuple[str, ...] = ("reference",)

    def __post_init__(self) -> None:
        def _bands(name, pairs):
            if isinstance(pairs, Mapping):
                pairs = pairs.items()
            return tuple(
                (str(key), _band(f"{name}[{key}]", band))
                for key, band in pairs
            )

        object.__setattr__(
            self, "occurrences", _bands("occurrences", self.occurrences)
        )
        object.__setattr__(self, "alerts", _bands("alerts", self.alerts))
        if self.max_mean_recognition_ms is not None:
            if self.max_mean_recognition_ms <= 0:
                raise ValueError("max_mean_recognition_ms must be positive")
        if self.crowd_resolutions is not None:
            object.__setattr__(
                self,
                "crowd_resolutions",
                _band("crowd_resolutions", self.crowd_resolutions),
            )
        norm = []
        for entry in self.degraded:
            entry = tuple(entry)
            if len(entry) == 2:
                entry = (*entry, None)
            if len(entry) != 3:
                raise ValueError(
                    "degraded entries must be (feed, min_s[, max_s]), "
                    f"got {entry!r}"
                )
            feed, min_s, max_s = entry
            min_s = int(min_s)
            if min_s < 0 or (max_s is not None and int(max_s) < min_s):
                raise ValueError(
                    f"degraded bounds for {feed!r} must satisfy "
                    f"0 <= min_s <= max_s"
                )
            norm.append(
                (str(feed), min_s, None if max_s is None else int(max_s))
            )
        object.__setattr__(self, "degraded", tuple(norm))
        unknown = set(self.parity) - set(PARITY_VARIANTS)
        if unknown:
            raise ValueError(
                f"unknown parity variant(s) {sorted(unknown)}; expected "
                f"a subset of {PARITY_VARIANTS}"
            )
        object.__setattr__(self, "parity", tuple(self.parity))

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "EnvelopeSpec":
        from .spec import reject_unknown_keys

        if not isinstance(mapping, Mapping):
            raise ValueError("envelope section must be a mapping")
        known = {f.name for f in fields(cls)}
        reject_unknown_keys(mapping, known, "envelope")
        kwargs: dict[str, Any] = {}
        for key, value in mapping.items():
            if key in ("occurrences", "alerts") and isinstance(
                value, Mapping
            ):
                value = tuple(sorted(value.items()))
            elif isinstance(value, list):
                value = tuple(
                    tuple(v) if isinstance(v, list) else v for v in value
                )
            kwargs[key] = value
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, Any]:
        """Serialise back to the document shape ``from_mapping``
        accepts (omitting unset optional clauses)."""
        out: dict[str, Any] = {}
        if self.occurrences:
            out["occurrences"] = {
                name: list(band) for name, band in self.occurrences
            }
        if self.alerts:
            out["alerts"] = {
                kind: list(band) for kind, band in self.alerts
            }
        if self.max_mean_recognition_ms is not None:
            out["max_mean_recognition_ms"] = self.max_mean_recognition_ms
        if self.crowd_resolutions is not None:
            out["crowd_resolutions"] = list(self.crowd_resolutions)
        if self.degraded:
            out["degraded"] = [list(entry) for entry in self.degraded]
        out["parity"] = list(self.parity)
        return out


@dataclass(frozen=True)
class Clause:
    """One checked envelope clause: what was demanded, what happened."""

    kind: str
    subject: str
    expected: str
    observed: str
    passed: bool

    def format(self) -> str:
        """One-line ``[PASS|FAIL] kind subject: expected …`` rendering."""
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.kind} {self.subject}: expected "
            f"{self.expected}, observed {self.observed}"
        )


@dataclass
class EnvelopeResult:
    """All clause verdicts for one scenario run."""

    scenario: str
    clauses: list[Clause] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(clause.passed for clause in self.clauses)

    @property
    def failures(self) -> list[Clause]:
        return [clause for clause in self.clauses if not clause.passed]

    def format(self) -> str:
        """Multi-line verdict: headline plus one line per clause."""
        lines = [f"envelope {self.scenario}: " + (
            "PASS" if self.passed else "FAIL"
        )]
        lines.extend("  " + clause.format() for clause in self.clauses)
        return "\n".join(lines)


def _degraded_seconds(report, feed: str, run_end: int) -> int:
    total = 0
    for start, end in report.degraded.get(feed, []):
        total += (run_end if end is None else end) - start
    return total


def check_envelope(
    envelope: EnvelopeSpec,
    report,
    *,
    scenario: str,
    run_end: int,
    parity: Optional[Mapping[str, bool]] = None,
) -> EnvelopeResult:
    """Evaluate every clause of ``envelope`` against a run.

    ``parity`` maps variant name → whether that variant's CE output
    matched the baseline (the runner computes it; ``None`` marks the
    whole parity set unchecked, which fails if the envelope demands
    any variant).
    """
    result = EnvelopeResult(scenario=scenario)
    add = result.clauses.append

    for name, (lo, hi) in envelope.occurrences:
        observed = report.total_occurrences(name)
        add(
            Clause(
                kind="occurrences",
                subject=name,
                expected=f"[{lo}, {hi}]",
                observed=str(observed),
                passed=lo <= observed <= hi,
            )
        )

    counts = report.console.counts()
    for kind, (lo, hi) in envelope.alerts:
        observed = counts.get(kind, 0)
        add(
            Clause(
                kind="alerts",
                subject=kind,
                expected=f"[{lo}, {hi}]",
                observed=str(observed),
                passed=lo <= observed <= hi,
            )
        )

    if envelope.max_mean_recognition_ms is not None:
        observed_ms = report.mean_recognition_time * 1000.0
        add(
            Clause(
                kind="latency",
                subject="mean_recognition_ms",
                expected=f"<= {envelope.max_mean_recognition_ms:g}",
                observed=f"{observed_ms:.2f}",
                passed=observed_ms <= envelope.max_mean_recognition_ms,
            )
        )

    if envelope.crowd_resolutions is not None:
        lo, hi = envelope.crowd_resolutions
        observed = report.crowd_resolutions
        add(
            Clause(
                kind="crowd",
                subject="resolutions",
                expected=f"[{lo}, {hi}]",
                observed=str(observed),
                passed=lo <= observed <= hi,
            )
        )

    for feed, min_s, max_s in envelope.degraded:
        observed = _degraded_seconds(report, feed, run_end)
        upper = "inf" if max_s is None else str(max_s)
        ok = observed >= min_s and (max_s is None or observed <= max_s)
        add(
            Clause(
                kind="degraded",
                subject=feed,
                expected=f"[{min_s}, {upper}] s",
                observed=f"{observed} s",
                passed=ok,
            )
        )

    for variant in envelope.parity:
        matched = None if parity is None else parity.get(variant)
        add(
            Clause(
                kind="parity",
                subject=variant,
                expected="identical CE output",
                observed=(
                    "unchecked"
                    if matched is None
                    else ("identical" if matched else "DIVERGED")
                ),
                passed=bool(matched),
            )
        )

    return result
