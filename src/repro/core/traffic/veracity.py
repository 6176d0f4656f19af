"""Veracity handling: source (dis)agreement and bus reliability.

Implements the CE definitions of Sections 4.3 that deal with the data
veracity problem:

* :class:`SourceDisagreement` — the statically-determined fluent
  computed with ``relative_complement_all``: buses report congestion at
  a SCATS intersection while the SCATS sensors there do not.
* :class:`Disagree` / :class:`Agree` — instantaneous events fired when
  a bus moving close to a SCATS intersection contradicts/confirms the
  intersection's sensors.
* :class:`NoisyCrowdValidated` — rule-set (4): a bus becomes ``noisy``
  only when the crowd confirms the SCATS sensors against it.
* :class:`NoisyPessimistic` — rule-set (5): a bus becomes ``noisy`` on
  any disagreement (SCATS presumed trustworthy), and is rehabilitated
  by agreement or by crowd evidence in its favour.

Crowd answers arrive as input SDEs of type ``crowd`` with payload keys
``intersection``, ``lon``, ``lat`` and ``value`` (``"positive"`` for a
confirmed congestion, ``"negative"`` otherwise) — the
``crowd(LonInt, LatInt, Val)`` events of the paper, keyed here by
intersection id.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

from ..compiled import (
    CompiledBusComparison,
    CompiledRule,
    recorded_bus_reports,
)
from ..events import FluentKey, Occurrence
from ..intervals import IntervalList, encode_points, relative_complement_all
from ..rules import DerivedEvent, RuleContext, SimpleFluent, StaticFluent
from .bus import _gps_at, close_intersections
from .topology import ScatsTopology

#: Default thresholds for the veracity definitions.
DEFAULT_VERACITY_PARAMS: dict[str, float | int] = {
    # Crowd answers are only used against a disagreement if they arrive
    # within this many seconds of it (rule-sets (4)/(5)).
    "veracity.crowd_response_window": 900,
}

POSITIVE = "positive"
NEGATIVE = "negative"


class SourceDisagreement(StaticFluent):
    """``sourceDisagreement`` via ``relative_complement_all``.

    The maximal intervals during which some buses report congestion at
    the location of a SCATS intersection while, according to the SCATS
    sensors of that intersection, there is no congestion.  Computed only
    for SCATS intersection locations; grounding key
    ``(intersection_id,)``.
    """

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "sourceDisagreement",
        bus_fluent: str = "busCongestion",
        scats_fluent: str = "scatsIntCongestion",
    ):
        super().__init__(name, depends_on=(bus_fluent, scats_fluent))
        self._topology = topology
        self._bus_fluent = bus_fluent
        self._scats_fluent = scats_fluent

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        out: dict[FluentKey, IntervalList] = {}
        for key, bus_intervals in ctx.fluent(self._bus_fluent).items():
            if key[0] not in self._topology:
                continue
            scats_intervals = ctx.intervals(self._scats_fluent, key)
            disagreement = relative_complement_all(
                bus_intervals, [scats_intervals]
            )
            if disagreement:
                out[key] = disagreement
        return out


class _BusScatsComparison(DerivedEvent):
    """Shared machinery for the ``disagree``/``agree`` events.

    Both rules fire on a ``move`` SDE of a bus that is close to a SCATS
    intersection, comparing the bus's congestion bit against
    ``holdsAt(scatsIntCongestion(...) = true, T)``.
    """

    def __init__(
        self,
        name: str,
        topology: ScatsTopology,
        *,
        scats_fluent: str = "scatsIntCongestion",
    ):
        super().__init__(name, depends_on=(scats_fluent,))
        self._topology = topology
        self._scats_fluent = scats_fluent

    def _comparisons(
        self, ctx: RuleContext
    ) -> Iterable[tuple[object, str, int, bool, bool]]:
        """All ``(bus, intersection, T, bus_says, scats_says)`` joins.

        Computed once per window and shared between the ``disagree``
        and ``agree`` definitions through the context memo.
        """
        memo_key = ("bus_scats_comparisons", id(self._topology),
                    self._scats_fluent)
        if memo_key in ctx.memo:
            return ctx.memo[memo_key]
        out: list[tuple[object, str, int, bool, bool]] = []
        for ev in ctx.events("move"):
            bus = ev["bus"]
            gps = _gps_at(ctx, bus, ev.time)
            if gps is None:
                continue
            bus_says = bool(gps["congestion"])
            for int_id in close_intersections(
                ctx, self._topology, gps["lon"], gps["lat"]
            ):
                scats_says = ctx.holds_at(
                    self._scats_fluent, (int_id,), ev.time
                )
                out.append((bus, int_id, ev.time, bus_says, scats_says))
        ctx.memo[memo_key] = out
        return out

    #: Whether the event fires on agreement (``agree``) or on
    #: disagreement (``disagree``) of the two sources.
    _fires_on_agreement: bool

    def compiled(self, params) -> CompiledBusComparison:
        """The comparison over the shared bus-report relation, the
        SCATS fluent probed for every ``close`` pair at once."""
        return CompiledBusComparison(
            self.name,
            self._topology,
            self._scats_fluent,
            agree=self._fires_on_agreement,
        )


class Disagree(_BusScatsComparison):
    """``disagree(Bus, LonInt, LatInt, Val)`` (Section 4.3).

    Fired when a bus close to a SCATS intersection disagrees with the
    intersection's sensors on congestion.  ``Val`` is ``positive`` when
    the bus reports a congestion (the sensors do not) and ``negative``
    when the bus reports free flow (the sensors report congestion).
    """

    _fires_on_agreement = False

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "disagree",
        scats_fluent: str = "scatsIntCongestion",
    ):
        super().__init__(name, topology, scats_fluent=scats_fluent)

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        for bus, int_id, t, bus_says, scats_says in self._comparisons(ctx):
            if bus_says == scats_says:
                continue
            lon, lat = self._topology.location(int_id)
            yield Occurrence(
                self.name,
                (bus, int_id),
                t,
                {
                    "bus": bus,
                    "intersection": int_id,
                    "lon": lon,
                    "lat": lat,
                    "value": POSITIVE if bus_says else NEGATIVE,
                },
            )


class Agree(_BusScatsComparison):
    """``agree(Bus)`` (Section 4.3): the bus confirms the sensors."""

    _fires_on_agreement = True

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "agree",
        scats_fluent: str = "scatsIntCongestion",
    ):
        super().__init__(name, topology, scats_fluent=scats_fluent)

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        for bus, int_id, t, bus_says, scats_says in self._comparisons(ctx):
            if bus_says != scats_says:
                continue
            yield Occurrence(
                self.name,
                (bus,),
                t,
                {"bus": bus, "intersection": int_id},
            )


def _crowd_answers(
    ctx: RuleContext,
) -> dict[object, list[tuple[int, str]]]:
    """Crowd events grouped by intersection as ``(T', value)`` pairs,
    each group sorted — built once per query and shared by every body
    that reads them (read-only)."""
    answers = ctx.memo.get("__crowd_answers__")
    if answers is None:
        answers = ctx.memo["__crowd_answers__"] = {}
        for ev in ctx.events("crowd"):
            answers.setdefault(ev["intersection"], []).append(
                (ev.time, ev["value"])
            )
        for group in answers.values():
            group.sort()
    return answers


def _crowd_verdict_after(
    answers: dict[object, list[tuple[int, str]]],
    intersection: object,
    t: int,
    window: float,
) -> str | None:
    """The first crowd value for ``intersection`` with
    ``0 < T' - T < window``, or ``None`` (``answers`` as
    :func:`_crowd_answers` gives them)."""
    for t_crowd, value in answers.get(intersection, ()):
        if 0 < t_crowd - t < window:
            return value
    return None


class NoisyCrowdValidated(SimpleFluent):
    """``noisy(Bus)`` — rule-set (4), crowd-validated.

    Initiated when a bus disagrees with the SCATS sensors of an
    intersection *and* the crowdsourced answer (arriving within
    ``veracity.crowd_response_window`` seconds) sides with the sensors.
    Terminated when the bus agrees with SCATS sensors somewhere, or when
    crowd evidence proves the bus right about a disagreement.
    """

    def __init__(
        self,
        *,
        name: str = "noisy",
        disagree_event: str = "disagree",
        agree_event: str = "agree",
    ):
        super().__init__(name, depends_on=(disagree_event, agree_event))
        self._disagree_event = disagree_event
        self._agree_event = agree_event

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        window = ctx.param("veracity.crowd_response_window")
        answers = _crowd_answers(ctx)
        for occ in ctx.derived(self._disagree_event):
            verdict = _crowd_verdict_after(
                answers, occ["intersection"], occ.time, window
            )
            if verdict is not None and verdict != occ["value"]:
                yield (occ["bus"],), occ.time

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        for occ in ctx.derived(self._agree_event):
            yield (occ["bus"],), occ.time
        window = ctx.param("veracity.crowd_response_window")
        answers = _crowd_answers(ctx)
        for occ in ctx.derived(self._disagree_event):
            verdict = _crowd_verdict_after(
                answers, occ["intersection"], occ.time, window
            )
            if verdict is not None and verdict == occ["value"]:
                yield (occ["bus"],), occ.time

    def compiled(self, params) -> "CompiledNoisy":
        """The two rule bodies over the firing pairs the compiled
        comparisons left; only the disagreements at an intersection
        with crowd answers reach Python."""
        return CompiledNoisy(self)


class CompiledNoisy(CompiledRule):
    """Rule-set (4) over the firing pairs of the compiled ``disagree``
    and ``agree`` (:attr:`repro.core.compiled.BusReports.fired`), in
    their occurrence order: every agreement terminates, and a
    disagreement at an intersection the crowd answered within the
    response window initiates or terminates as the answer sides with
    the sensors or the bus.  The groundings are the ``move`` store's
    ``(bus,)`` tokens.  When either event was not derived by a
    compiled comparison in this query, the interpreted bodies run."""

    def __init__(self, definition: NoisyCrowdValidated):
        self.definition = definition

    def derive(self, ctx) -> dict[str, Any]:
        """``init`` / ``term`` arrays of the two rule bodies."""
        definition = self.definition
        reports = recorded_bus_reports(ctx)
        fired = reports.fired if reports is not None else {}
        disagree = fired.get(definition._disagree_event)
        agree = fired.get(definition._agree_event)
        if disagree is None or agree is None:
            return encode_points(
                list(definition.initiations(ctx)),
                list(definition.terminations(ctx)),
                valued=False,
            )
        move = reports.move
        rows, intersections, topology = disagree
        answers = _crowd_answers(ctx)
        asked = np.flatnonzero(np.isin(intersections, [
            at for at in map(topology.index_of, answers) if at is not None
        ]))
        # Positions in ``disagree``'s pairs: the crowd sided with the
        # sensors (initiates) or with the bus (terminates).
        initiated: list[int] = []
        proved: list[int] = []
        if len(asked):
            window = ctx.param("veracity.crowd_response_window")
            ids = topology.ids()
            says = reports.congestion[rows[asked]] != 0
            for n, i, t, bus_says in zip(
                asked.tolist(),
                intersections[asked].tolist(),
                move.times[rows[asked]].tolist(),
                says.tolist(),
            ):
                verdict = _crowd_verdict_after(answers, ids[i], t, window)
                if verdict is not None:
                    value = POSITIVE if bus_says else NEGATIVE
                    (proved if verdict == value else initiated).append(n)
        init = rows[np.array(initiated, dtype=np.int64)]
        term = np.concatenate((
            agree[0], rows[np.array(proved, dtype=np.int64)]
        ))
        return {
            "init": (move.codes[init], move.times[init]),
            "term": (move.codes[term], move.times[term]),
            "groundings": move.tokens.tokens.__getitem__,
        }


class NoisyPessimistic(SimpleFluent):
    """``noisy(Bus)`` — rule-set (5), SCATS-presumed-trustworthy.

    Initiated on *any* disagreement with SCATS sensors, even without
    crowd input.  Terminated by agreement, or by a crowd answer (within
    the response window) that proves the bus correct — note the paper
    terminates at ``T'``, the crowd answer's time, not the
    disagreement's.
    """

    def __init__(
        self,
        *,
        name: str = "noisy",
        disagree_event: str = "disagree",
        agree_event: str = "agree",
    ):
        super().__init__(name, depends_on=(disagree_event, agree_event))
        self._disagree_event = disagree_event
        self._agree_event = agree_event

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        for occ in ctx.derived(self._disagree_event):
            yield (occ["bus"],), occ.time

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        for occ in ctx.derived(self._agree_event):
            yield (occ["bus"],), occ.time
        window = ctx.param("veracity.crowd_response_window")
        answers = _crowd_answers(ctx)
        for occ in ctx.derived(self._disagree_event):
            for t_crowd, value in answers.get(occ["intersection"], ()):
                if 0 < t_crowd - occ.time < window and value == occ["value"]:
                    # Terminate at T' (the crowd answer's time).
                    yield (occ["bus"],), t_crowd
                    break


class NoisyScatsIntersection(SimpleFluent):
    """``noisyScats(Int)`` — SCATS reliability from crowd evidence.

    Section 4.3 closes with: "Given the crowdsourced information, we
    can also evaluate the reliability of SCATS sensors.  The
    formalisation is similar and omitted to save space."  This is that
    omitted formalisation, mirroring rule-set (4) with the roles
    swapped: a SCATS intersection becomes noisy when the crowdsourced
    answer (arriving within ``veracity.crowd_response_window`` seconds
    of a source disagreement at that intersection) contradicts what the
    intersection's sensors report, and is rehabilitated when a later
    crowd answer confirms them.
    """

    def __init__(
        self,
        *,
        name: str = "noisyScats",
        scats_fluent: str = "scatsIntCongestion",
        disagree_event: str = "disagree",
    ):
        super().__init__(name, depends_on=(scats_fluent, disagree_event))
        self._scats_fluent = scats_fluent
        self._disagree_event = disagree_event

    def _verdicts(
        self, ctx: RuleContext
    ) -> Iterable[tuple[object, int, bool, bool]]:
        """Yield ``(intersection, T', crowd_says, scats_says)`` for
        every crowd answer that resolves a recent disagreement."""
        window = ctx.param("veracity.crowd_response_window")
        disagreement_times: dict[object, list[int]] = {}
        for occ in ctx.derived(self._disagree_event):
            disagreement_times.setdefault(occ["intersection"], []).append(
                occ.time
            )
        for ev in ctx.events("crowd"):
            int_id = ev["intersection"]
            recent = any(
                0 < ev.time - t < window
                for t in disagreement_times.get(int_id, ())
            )
            if not recent:
                continue
            crowd_says = ev["value"] == POSITIVE
            scats_says = ctx.holds_at(self._scats_fluent, (int_id,), ev.time)
            yield int_id, ev.time, crowd_says, scats_says

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        for int_id, t, crowd_says, scats_says in self._verdicts(ctx):
            if crowd_says != scats_says:
                yield (int_id,), t

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        for int_id, t, crowd_says, scats_says in self._verdicts(ctx):
            if crowd_says == scats_says:
                yield (int_id,), t


class TrustedScatsCongestion(StaticFluent):
    """``scatsIntCongestion`` filtered by SCATS reliability.

    The analog of rule-set (3′) on the fixed-sensor side: congestion
    intervals reported by a SCATS intersection are discarded while the
    intersection is considered noisy, so downstream consumers (the
    operator map, the traffic model) only see trusted sensor output.
    """

    def __init__(
        self,
        *,
        name: str = "trustedScatsCongestion",
        scats_fluent: str = "scatsIntCongestion",
        noisy_fluent: str = "noisyScats",
    ):
        super().__init__(name, depends_on=(scats_fluent, noisy_fluent))
        self._scats_fluent = scats_fluent
        self._noisy_fluent = noisy_fluent

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        out: dict[FluentKey, IntervalList] = {}
        for key, intervals in ctx.fluent(self._scats_fluent).items():
            noisy = ctx.intervals(self._noisy_fluent, key)
            trusted = relative_complement_all(intervals, [noisy])
            if trusted:
                out[key] = trusted
        return out
