"""Deterministic fault specifications and the injection engine.

The paper's premise is operation over unreliable city feeds: SDEs
arrive late (Section 4's working memory / Figure 2), sensors lie
(``noisy(Bus)``, rule-sets (4)/(5)) and crowd workers simply do not
answer.  This module makes those pathologies *injectable*: a
:class:`StreamFaults` spec describes drop / delay / duplicate /
field-corruption faults for one SDE feed, a :class:`CrowdFaults` spec
describes worker non-response and reply-window timeouts, and a
:class:`FaultProfile` bundles them under a name.

Everything is driven by seeded :class:`random.Random` streams — one
per feed — so a profile applied to the same stream with the same seed
produces byte-identical faults, which is what makes chaos runs
diffable against clean runs (see ``tests/faults/test_chaos_parity.py``).

Two invariants the injectors maintain:

* *occurrence times are never touched* — a delay fault only moves the
  **arrival** stamp forward, reproducing mediator/network lag without
  rewriting history (the paper's Figure 2 scenario);
* *timestamps are never corrupted* — corruption only hits the payload
  fields named by the spec, so downstream windowing stays well-formed.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.columns import FactColumns, SDEColumns
from ..core.events import Event, FluentFact
from ..draws import Draws, Words
from ..obs import Registry

#: RNG sub-seed offsets so each feed walks an independent stream.
_FEED_SEED_OFFSETS = {"scats": 101, "bus": 211, "gps": 307, "stream": 401}


def _rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class StreamFaults:
    """Fault rates for one SDE feed (all probabilities per record).

    Parameters
    ----------
    drop_rate:
        Probability a record is lost entirely (network loss, a dead
        sensor, a mediator crash).
    delay_rate / max_delay_s:
        Probability a record's *arrival* is postponed by a uniform
        delay in ``[1, max_delay_s]`` seconds (``max_delay_s`` at most
        ``2**32``, the widest range :mod:`repro.draws` reproduces).
        Occurrence times are untouched, so the record reaches the
        engine out of order — exactly the Figure 2 pathology the
        working memory exists for.
    duplicate_rate:
        Probability a record is delivered twice (at-least-once
        mediators, retrying gateways).
    corrupt_rate / corrupt_fields:
        Probability the named payload fields are corrupted: numeric
        values are stuck at zero (a flat-lined sensor), 0/1 congestion
        bits are flipped (the paper's ``noisy(Bus)`` motivation).
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_s: int = 0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_fields: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _rate("drop_rate", self.drop_rate)
        _rate("delay_rate", self.delay_rate)
        _rate("duplicate_rate", self.duplicate_rate)
        _rate("corrupt_rate", self.corrupt_rate)
        if not 0 <= self.max_delay_s <= 1 << 32:
            raise ValueError("max_delay_s must be within [0, 2**32]")
        if self.delay_rate > 0.0 and self.max_delay_s == 0:
            raise ValueError("delay_rate > 0 needs max_delay_s > 0")
        if self.corrupt_rate > 0.0 and not self.corrupt_fields:
            raise ValueError("corrupt_rate > 0 needs corrupt_fields")

    @property
    def active(self) -> bool:
        """Whether this spec injects anything at all."""
        return any(
            (
                self.drop_rate,
                self.delay_rate,
                self.duplicate_rate,
                self.corrupt_rate,
            )
        )


@dataclass(frozen=True)
class CrowdFaults:
    """Crowd-worker faults for the query execution engine.

    Parameters
    ----------
    no_response_rate:
        Probability a selected worker never answers a map task — the
        push notification is lost or the participant ignores it.
    timeout_rate:
        Probability a worker *would* answer but only after the query's
        reply window has closed (the server stops waiting); the answer
        is discarded and the task counts as timed out.
    extra_think_ms:
        How far past the reply window a timed-out answer lands (only
        affects the recorded latency breakdown).
    """

    no_response_rate: float = 0.0
    timeout_rate: float = 0.0
    extra_think_ms: float = 120_000.0

    def __post_init__(self) -> None:
        _rate("no_response_rate", self.no_response_rate)
        _rate("timeout_rate", self.timeout_rate)
        if self.extra_think_ms < 0:
            raise ValueError("extra_think_ms must not be negative")

    @property
    def active(self) -> bool:
        """Whether this spec injects anything at all."""
        return bool(self.no_response_rate or self.timeout_rate)


@dataclass(frozen=True)
class FaultProfile:
    """A named bundle of per-feed stream faults plus crowd faults."""

    name: str
    description: str = ""
    scats: StreamFaults = field(default_factory=StreamFaults)
    bus: StreamFaults = field(default_factory=StreamFaults)
    crowd: CrowdFaults = field(default_factory=CrowdFaults)
    seed: int = 0

    @property
    def active(self) -> bool:
        """Whether any component of the profile injects faults."""
        return self.scats.active or self.bus.active or self.crowd.active

    def with_seed(self, seed: int) -> "FaultProfile":
        """The same profile driven by a different seed."""
        return dataclasses.replace(self, seed=seed)

    def to_dict(self) -> dict:
        """Plain-dict view (CLI ``faults --show`` output)."""
        return dataclasses.asdict(self)


def _corrupt_value(value):
    """Corrupt one payload value: flip congestion-style bits, flatten
    numbers to a stuck-at-zero reading, blank out strings.  Draws
    nothing: a record's draws are its fate's alone."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int) and value in (0, 1):
        return 1 - value
    if isinstance(value, (int, float)):
        return type(value)(0)
    if isinstance(value, str):
        return ""
    return value


class FaultInjector:
    """Applies one :class:`StreamFaults` spec to a record stream.

    A single injector owns one seeded RNG; records must be offered in a
    deterministic order (stream order) for reproducibility.  Injection
    results are counted into the optional metrics registry under
    ``faults.<feed>.*`` so every injected fault is observable.
    """

    def __init__(
        self,
        spec: StreamFaults,
        *,
        seed: int = 0,
        feed: str = "stream",
        metrics: Optional[Registry] = None,
    ):
        self.spec = spec
        self.feed = feed
        self.metrics = metrics
        self._rng = random.Random(seed + _FEED_SEED_OFFSETS.get(feed, 0))

    # -- bookkeeping -----------------------------------------------------
    def _count(self, kind: str, n: int = 1) -> None:
        if self.metrics is not None and n:
            self.metrics.counter(f"faults.{self.feed}.{kind}").inc(n)

    def _decide(self) -> tuple[bool, int, bool, bool]:
        """One record's fate: (dropped, delay_s, duplicated, corrupted).

        Every configured fault class draws exactly once per record —
        even for dropped records — so the RNG stream position depends
        only on the record count, not on earlier outcomes.
        """
        spec = self.spec
        rng = self._rng
        dropped = spec.drop_rate > 0 and rng.random() < spec.drop_rate
        delay = 0
        if spec.delay_rate > 0:
            delayed = rng.random() < spec.delay_rate
            amount = rng.randint(1, spec.max_delay_s)
            delay = amount if delayed else 0
        duplicated = (
            spec.duplicate_rate > 0 and rng.random() < spec.duplicate_rate
        )
        corrupted = (
            spec.corrupt_rate > 0 and rng.random() < spec.corrupt_rate
        )
        return dropped, delay, duplicated, corrupted

    # -- record-level injection ------------------------------------------
    def event(self, ev: Event) -> list[Event]:
        """Inject into one SDE; returns zero, one or two events."""
        self._count("seen")
        dropped, delay, duplicated, corrupted = self._decide()
        if dropped:
            self._count("dropped")
            return []
        if corrupted:
            changes = {
                name: _corrupt_value(ev.payload[name])
                for name in self.spec.corrupt_fields
                if name in ev.payload
            }
            if changes:
                self._count("corrupted")
                ev = ev.replace_payload(**changes)
        if delay:
            self._count("delayed")
            if self.metrics is not None:
                self.metrics.timing(f"faults.{self.feed}.delay_s").observe(
                    delay
                )
            ev = Event(ev.type, ev.time, ev.payload, ev.arrival + delay)
        out = [ev]
        if duplicated:
            self._count("duplicated")
            out.append(ev)
        self._count("emitted", len(out))
        return out

    def fact(self, fact: FluentFact) -> list[FluentFact]:
        """Inject into one input-fluent fact (corruption targets the
        fields of a mapping-valued fluent, e.g. the gps congestion
        bit)."""
        self._count("seen")
        dropped, delay, duplicated, corrupted = self._decide()
        if dropped:
            self._count("dropped")
            return []
        value = fact.value
        if corrupted and hasattr(value, "items"):
            mutated = dict(value)
            changed = False
            for name in self.spec.corrupt_fields:
                if name in mutated:
                    mutated[name] = _corrupt_value(mutated[name])
                    changed = True
            if changed:
                self._count("corrupted")
                value = mutated
        arrival = fact.arrival
        if delay:
            self._count("delayed")
            if self.metrics is not None:
                self.metrics.timing(f"faults.{self.feed}.delay_s").observe(
                    delay
                )
            arrival = fact.arrival + delay
        fact = FluentFact(fact.name, fact.key, value, fact.time, arrival)
        out = [fact]
        if duplicated:
            self._count("duplicated")
            out.append(fact)
        self._count("emitted", len(out))
        return out

    # -- stream-level injection ------------------------------------------
    def events(self, events: Iterable[Event]) -> list[Event]:
        """Inject into a whole event stream (stream order preserved)."""
        out: list[Event] = []
        for ev in events:
            out.extend(self.event(ev))
        return out

    def facts(self, facts: Iterable[FluentFact]) -> list[FluentFact]:
        """Inject into a whole fact stream (stream order preserved)."""
        out: list[FluentFact] = []
        for fact in facts:
            out.extend(self.fact(fact))
        return out

    def _fates(self, words: Words, at: np.ndarray):
        """:meth:`_decide` for a record starting at each word of ``at``
        (:class:`~repro.draws.Draws` program): the same draws in the
        same order, as ``(end, (dropped, delay_s, duplicated,
        corrupted))`` arrays."""
        spec = self.spec
        dropped = duplicated = corrupted = np.zeros(len(at), dtype=bool)
        delay = np.zeros(len(at), dtype=np.int64)
        if spec.drop_rate > 0:
            u, at = words.random(at)
            dropped = u < spec.drop_rate
        if spec.delay_rate > 0:
            u, at = words.random(at)
            amount, at = words.randint(1, spec.max_delay_s, at)
            delay = np.where(u < spec.delay_rate, amount, 0)
        if spec.duplicate_rate > 0:
            u, at = words.random(at)
            duplicated = u < spec.duplicate_rate
        if spec.corrupt_rate > 0:
            u, at = words.random(at)
            corrupted = u < spec.corrupt_rate
        return at, (dropped, delay, duplicated, corrupted)

    def block(self, block):
        """Inject into one column block — an
        :class:`~repro.core.columns.EventColumns` or
        :class:`~repro.core.columns.FactColumns` — and return the
        faulty block.

        What :meth:`event` / :meth:`fact` do record by record, over the
        block's arrays: the fates are :meth:`_decide`'s draws for every
        row in row order (the RNG stream is the same, and the RNG is
        left where the per-row calls leave it), made for all rows at
        once (:meth:`_fates`), and then applied as a keep-mask, an
        arrival offset, repeated rows for the duplicates (adjacent, as
        the record path emits them) and overrides of the corrupted
        cells.  Counters and the ``delay_s`` timing come out as if
        every row had been counted on its own.
        """
        n = len(block)
        if self.spec.active:
            with Draws(self._rng, self._fates) as draws:
                dropped, delay, duplicated, corrupted = draws.take(n)
        else:  # no fault class configured: _decide draws nothing
            dropped = duplicated = corrupted = np.zeros(n, dtype=bool)
            delay = np.zeros(n, dtype=np.int64)
        kept = ~dropped
        late = delay[kept & (delay > 0)]
        source = np.repeat(np.arange(n), kept * (1 + duplicated))
        out = block.take(source)  # fresh arrays: the input stays as it was
        out.arrivals += delay[source]
        # Both copies of a duplicate get the same corrupted cells.
        fields = out.value_fields if isinstance(out, FactColumns) else out.fields
        names = [name for name in self.spec.corrupt_fields if name in fields]
        rows = np.flatnonzero(corrupted[source])
        for name in names:
            column = fields[name]
            for i, value in zip(rows.tolist(), column[rows].tolist()):
                column[i] = _corrupt_value(value)

        self._count("seen", n)
        self._count("dropped", n - int(kept.sum()))
        if names and len(rows):
            self._count("corrupted", len(np.unique(source[rows])))
        self._count("delayed", len(late))
        if self.metrics is not None and len(late):
            self.metrics.timing(f"faults.{self.feed}.delay_s").observe_many(
                late.tolist()
            )
        self._count("duplicated", int((kept & duplicated).sum()))
        self._count("emitted", len(source))
        return out


def inject_scenario(data, profile: FaultProfile, *,
                    metrics: Optional[Registry] = None):
    """Apply a profile to a scenario's SDE stream.

    ``traffic`` events go through the SCATS spec; ``move`` events and
    ``gps`` facts go through the bus spec (each feed on its own RNG
    stream, so per-feed injection is independent of interleaving).
    ``data`` is a :class:`~repro.dublin.scenario.ScenarioData`; the
    result is a new one over the faulty columns — the input's arrays
    are never written to.
    """
    injectors = {
        feed: FaultInjector(
            spec, seed=profile.seed, feed=feed, metrics=metrics
        )
        for feed, spec in (
            ("scats", profile.scats), ("bus", profile.bus),
            ("gps", profile.bus),
        )
    }
    feed_of = {"traffic": "scats", "move": "bus"}
    columns = SDEColumns(
        [
            injectors[feed_of[block.type]].block(block)
            if block.type in feed_of
            else block
            for block in data.columns.events
        ],
        [
            injectors["gps"].block(block) if block.name == "gps" else block
            for block in data.columns.facts
        ],
    )
    return dataclasses.replace(data, columns=columns)
