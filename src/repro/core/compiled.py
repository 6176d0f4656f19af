"""Vectorised evaluators for the hot RTEC rule bodies.

The interpreter evaluates a rule body by iterating event objects and
probing their payload mappings per event, per rule, per query.  For the
body shapes that dominate the traffic suite — threshold comparisons
over one event type, per-token consecutive-reading scans, banded
classification, and the bus-report family that joins ``move`` to
``gps`` to the ``close`` intersections — the whole body is a handful of
``numpy`` operations over the window's rows as arrays
(:class:`repro.core.columns.ColumnStore`).  Each :class:`CompiledRule`
here lowers one such body; the engine calls :meth:`CompiledRule.derive`
wherever it would have called the definition's interpreted rule bodies.

An evaluator always reads the *whole window* and is called once per
query: every point of the window is derived anew, from arrays that
are computed over the whole window either way.  What a row determines
on its own is decided once and carried with the row in the window's
stores (:class:`~repro.core.columns.ColumnStore`): its evaluation
columns and, for the bus-report family, its join to ``gps`` — the
``gps`` row's congestion value and ``close/4`` slice — and the
``agree``/``disagree`` occurrence built for each of its ``close``
pairs, in a per-pair slot that is emptied when the join is decided
anew (:class:`BusReports`).

A fluent's points leave an evaluator as arrays, never as a tuple per
point: per stream (``init``, ``term``) an ``int64`` grounding-code
array and an ``int64`` time array — plus, for a valued fluent, a
value-code array between them — and a code -> grounding lookup
(``groundings``; for a valued fluent also the value table,
``values``).  The engine builds every grounding's maximal intervals
from those arrays at once (:func:`repro.core.intervals.
simple_intervals`) and looks a grounding up once per distinct code.
Derived events stay :class:`~.events.Occurrence` lists, handed over
in the order the engine keeps them in.

Parity is the hard constraint, enforced by the golden-trace and
Hypothesis differential suites: a compiled body must yield exactly the
points the interpreted body would — an occurrence list in the order
the engine's stable sort gives the interpreter's, a fluent's points in
an order that builds the same output.  Three practices keep that true:

* every emitted occurrence time is converted to a Python ``int``
  (``numpy`` scalars would leak into snapshots and serialise
  differently; the interval functions convert fluent bounds themselves);
* payload construction always reads the *original* cells
  (:meth:`~repro.core.columns.ColumnStore.cells`: the blocks the rows
  were fed in), never round-trips through ``float64`` — an integer
  payload field must stay an integer;
* a derived event's occurrences leave in the engine's ``(time,
  key)`` order, ties in the interpreter's order — the rows of
  ``ctx.events(...)``, and within a bus report the order of
  :meth:`~repro.core.geo.SpatialGrid.near`: one stable ``np.lexsort``
  over each point's time and a rank of its key among the window's
  keys, built per query by sorting the distinct tokens in Python (the
  engine sorts only the interpreter's lists); a fluent's points are
  emitted in the interpreter's order, so that its groundings first
  appear where the interpreter's would (the order the engine lists
  them in follows from it).

A body over derived events compiles only over what a compiled rule
left for it: rule-set (4)'s ``noisy`` reads the firing pairs the
compiled comparisons record on the query's :class:`BusReports`
(:attr:`BusReports.fired`), not their occurrence objects.  Anything
these shapes can't express (rule-set (5)'s crowd look-ahead, pairwise
geo comparison, interval algebra) simply stays on the interpreter;
:meth:`repro.core.rules.Definition.compiled` returns ``None`` and the
engine counts the evaluation as a fallback.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any, Hashable, Optional

import numpy as np

from .columns import ColumnStore, ColumnSpec, ragged_index
from .events import Occurrence

#: Columnar layout of the SCATS ``traffic`` SDE: the two measurements
#: as numeric columns, the sensor identity as the grounding token.
TRAFFIC_COLUMNS = ColumnSpec(
    numeric=("density", "flow"),
    token=("intersection", "approach", "sensor"),
)

#: Columnar layout of the bus ``move`` SDE.
MOVE_COLUMNS = ColumnSpec(numeric=("delay",), token=("bus",))

#: Columnar layout of the ``gps`` input fluent paired with each
#: ``move``; the grounding token of a fact is its key, ``(bus,)``.
GPS_COLUMNS = ColumnSpec(numeric=("lon", "lat", "congestion"))

#: An empty point column.
_NO_POINTS = np.empty(0, dtype=np.int64)


class CompiledRule:
    """A vectorised drop-in for one definition's rule bodies.

    ``columns`` declares, per ``(kind, name)`` input — ``("event",
    type)`` or ``("fact", fluent)`` — the
    :class:`~repro.core.columns.ColumnSpec` the evaluator reads; the
    engine has the working memory keep those rows' evaluation columns
    in that layout.  Rules reading one input must agree on its
    grounding-token fields (their numeric fields merge by union).
    ``derive`` returns the stream dict
    :meth:`repro.core.rtec.RTEC._extract_streams` returns for the
    definition (see :meth:`derive`).

    Instances are constructed once per engine with thresholds bound
    from the engine's parameters, hold only plain values (and the
    topology their definition holds), and must remain picklable:
    engines are checkpointed, and shipped to the shard workers, whole.
    """

    columns: Mapping[tuple[str, str], ColumnSpec] = {}

    def derive(self, ctx) -> dict[str, Any]:
        """Evaluate the rule body over the context's window columns.

        Returns every point of the window.  A derived event:
        ``{"occ": [Occurrence, ...]}``, each time a Python ``int``, in
        ``(time, key)`` order and ties in body order (the engine keeps
        the list as it is).  A
        simple fluent: ``{"init": (codes, times), "term": (codes,
        times), "groundings": lookup}`` — ``int64`` arrays, one entry
        per point, and ``lookup(code)`` the grounding of a code (called
        at most once per distinct code and query).  A valued fluent:
        ``{"init": (codes, value_codes, times), "term": (codes,
        value_codes, times), "groundings": lookup, "values": table}``
        with ``table[value_code]`` the value.  Within the one call,
        codes must be one-to-one with groundings (two codes of one
        grounding raise ``ValueError``); across calls they need not
        agree: nothing of them is kept.
        """
        raise NotImplementedError


class CompiledScatsCongestion(CompiledRule):
    """Rule-set (2): one threshold conjunction per ``traffic`` reading.

    ``init`` where ``density >= hi and flow <= lo``; ``term`` is the
    exact complement — both sides of the fundamental-diagram test fall
    out of a single boolean mask.
    """

    columns = {("event", "traffic"): TRAFFIC_COLUMNS}

    def __init__(self, density_hi: float, flow_lo: float):
        self.density_hi = density_hi
        self.flow_lo = flow_lo

    def derive(self, ctx) -> dict[str, Any]:
        """One boolean mask over the window; ``init`` where it holds,
        ``term`` where it does not."""
        view = ctx.events_columns("traffic", TRAFFIC_COLUMNS)
        congested = (view.col("density") >= self.density_hi) & (
            view.col("flow") <= self.flow_lo
        )
        codes, times = view.codes, view.times
        return {
            "init": (codes[congested], times[congested]),
            "term": (codes[~congested], times[~congested]),
            "groundings": view.tokens.tokens.__getitem__,
        }


class CompiledTrafficRegime(CompiledRule):
    """Banded density classification into the three traffic regimes.

    Each reading initiates exactly one regime value (valued-fluent
    semantics displace the previous value); there are no explicit
    terminations.  The two band thresholds collapse into a nested
    ``np.where``.
    """

    columns = {("event", "traffic"): TRAFFIC_COLUMNS}

    #: Must match :attr:`repro.core.traffic.scats.TrafficRegime.REGIMES`.
    REGIMES = ("free", "synchronized", "congested")

    def __init__(self, density_hi: float, synchronized_density: float):
        self.density_hi = density_hi
        self.synchronized_density = synchronized_density

    def derive(self, ctx) -> dict[str, Any]:
        """Band-classify every reading; each row initiates its regime
        value (valued-fluent semantics need no terminations)."""
        view = ctx.events_columns("traffic", TRAFFIC_COLUMNS)
        density = view.col("density")
        band = np.where(
            density >= self.density_hi,
            2,
            np.where(density >= self.synchronized_density, 1, 0),
        )
        return {
            "init": (view.codes, band, view.times),
            "term": (_NO_POINTS,) * 3,
            "groundings": view.tokens.tokens.__getitem__,
            "values": self.REGIMES,
        }


class CompiledTrafficTrend(CompiledRule):
    """Monotone-run detection over each sensor's consecutive readings.

    All tokens are evaluated in ONE flattened pass: the rows are
    grouped by token with a stable sort, the reading steps become a
    single ``np.diff`` with the steps that cross a token boundary
    masked out, and a trend initiation is a window of ``k`` consecutive
    qualifying steps found with a cumulative-sum window count (a
    boundary step inside a window forces the count below ``k``, so runs
    can never leak across tokens).  A termination is any in-token step
    that breaks the direction.  Per-token numpy calls would drown the
    vector win in call overhead — windows here contain only tens of
    readings per sensor.

    The interpreted body's ``elif`` gives rising priority when
    ``delta`` admits both directions at once, mirrored here by masking
    falling windows with the rising ones.
    """

    columns = {("event", "traffic"): TRAFFIC_COLUMNS}

    def __init__(self, quantity: str, k: int, delta: float):
        self.quantity = quantity
        self.k = k
        self.delta = delta

    #: Grounding ``token + (way,)`` is coded ``token code * 2 + way``.
    WAYS = ("rising", "falling")

    def derive(self, ctx) -> dict[str, Any]:
        """Flattened diff/run-window pass over every token at once,
        emitting rising/falling trend initiations and direction-break
        terminations."""
        view = ctx.events_columns("traffic", TRAFFIC_COLUMNS)
        table, ways = view.tokens.tokens, self.WAYS
        out: dict[str, Any] = {
            "init": (_NO_POINTS, _NO_POINTS),
            "term": (_NO_POINTS, _NO_POINTS),
            "groundings": lambda code: table[code >> 1] + (ways[code & 1],),
        }
        if view.n < 2:
            return out
        k = self.k
        delta = self.delta
        # Tokens in the order the window first shows them, each with
        # its rows in window order.
        _, first, group = np.unique(
            view.codes, return_index=True, return_inverse=True
        )
        group = np.argsort(np.argsort(first))[group]
        order = np.argsort(group, kind="stable")
        group = group[order]
        steps = np.diff(view.col(self.quantity)[order])
        valid = group[1:] == group[:-1]  # steps inside one token
        rising = (steps >= delta) & valid
        falling = (steps <= -delta) & valid
        # Terminations: any in-token step that fails a direction's
        # bound terminates that direction at the later reading.
        candidates = {
            "term": (
                np.flatnonzero(valid & ~rising) + 1,
                np.flatnonzero(valid & ~falling) + 1,
            )
        }
        # Initiations: k consecutive qualifying steps, anchored at the
        # reading that completes the run.  Window counts via cumsum:
        # sums[j] = qualifying steps among steps[j .. j+k-1].
        if 1 <= k <= len(steps):
            cs_r = np.concatenate(([0], np.cumsum(rising)))
            cs_f = np.concatenate(([0], np.cumsum(falling)))
            rising_runs = (cs_r[k:] - cs_r[:-k]) == k
            falling_runs = (cs_f[k:] - cs_f[:-k]) == k
            falling_runs &= ~rising_runs
            candidates["init"] = (
                np.flatnonzero(rising_runs) + k,
                np.flatnonzero(falling_runs) + k,
            )
        for stream, (rise, fall) in candidates.items():
            # Candidate points as flattened positions, the rising ones
            # first; each sits at the row of its later reading.
            at = order[np.concatenate((rise, fall))]
            way = np.arange(len(at)) >= len(rise)
            out[stream] = (view.codes[at] * 2 + way, view.times[at])
        return out


# ----------------------------------------------------------------------
# The bus-report family
# ----------------------------------------------------------------------
class HoldsAtIndex:
    """``holdsAt`` of one boolean fluent for arrays of ``(grounding,
    time)`` probes.

    The fluent's maximal intervals are flattened into arrays sorted by
    ``(grounding code, start)``; a probe finds the last interval of
    its grounding starting at or before its time with one
    ``searchsorted`` over integer keys and tests the interval's end.
    ``code_of`` maps a fluent grounding to the integer the probes use
    (``None``: a grounding no probe can name).
    """

    __slots__ = ("_owner", "_start", "_end", "_open")

    def __init__(self, fluent: Mapping, code_of: Callable):
        owner, start, end = [], [], []
        for key, intervals in fluent.items():
            code = code_of(key)
            if code is None:
                continue
            for a, b in intervals:
                owner.append(code)
                start.append(a)
                end.append(b)
        order = np.lexsort((start, owner))
        self._owner = np.array(owner, dtype=np.int64)[order]
        self._start = np.array(start, dtype=np.int64)[order]
        self._open = np.array([b is None for b in end], dtype=bool)[order]
        self._end = np.array([b or 0 for b in end], dtype=np.int64)[order]

    def probe(self, codes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Whether the fluent holds for ``codes[i]`` at ``times[i]``."""
        if not len(self._owner) or not len(times):
            return np.zeros(len(times), dtype=bool)
        # One integer key per (grounding, time): times shifted into
        # [0, span) so a grounding's keys never reach the next one's —
        # the starts too, one of which may lie beyond every end and
        # every probe.
        lo = min(int(self._start.min()), int(times.min()))
        hi = max(
            int(self._end.max()),
            int(self._start.max()) + 1,
            int(times.max()) + 1,
        )
        span = hi - lo + 1
        start_keys = self._owner * span + (self._start - lo)
        end_keys = self._owner * span + (
            np.where(self._open, hi, self._end) - lo
        )
        keys = codes * span + (times - lo)
        at = np.searchsorted(start_keys, keys, "right") - 1
        # An interval of another grounding ends below this one's keys.
        return (at >= 0) & (keys < end_keys[np.maximum(at, 0)])


def _holds_index(ctx, fluent: str, coding: Hashable, code_of: Callable):
    """The context's :class:`HoldsAtIndex` of ``fluent`` under one
    coding of its groundings, built on first use in the query."""
    memo_key = ("__holds_at__", fluent, coding)
    index = ctx.memo.get(memo_key)
    if index is None:
        index = ctx.memo[memo_key] = HoldsAtIndex(ctx.fluent(fluent), code_of)
    return index


class BusReports:
    """The window's bus reports as one relation: a view over the
    ``move`` store's row-carried join to ``gps``.

    Every ``move`` row, in ``ctx.events("move")`` order, joined to the
    first ``gps`` row with its ``(bus, time)`` — what
    ``ctx.fact_at("gps", (bus,), time)`` finds.  The join is decided
    once per row and kept on the ``move`` store with the row
    (:meth:`~repro.core.columns.ColumnStore.join`): whether there is
    one, its congestion value and, per topology, its ``close/4`` slice
    (:meth:`close`).  A query decides it only for the rows admitted
    since the previous query, and again for the rows whose ``(bus,
    time)`` a ``gps`` row admitted since then shares: it may come first
    now.  A ``move`` whose ``gps`` is missing (dropped, or not arrived
    yet) joins nothing and reports nothing.
    """

    __slots__ = (
        "move", "gps", "joined", "fired", "_gps_decided", "_pairs",
        "_agreement", "_bus_rank",
    )

    def __init__(self, move: ColumnStore, gps: ColumnStore):
        self.move = move
        self.gps = gps
        #: Per ``move`` row, whether it has a ``gps`` row; and the
        #: position of that row for the rows decided in this query.
        self.joined, self._gps_decided = move.join(gps, carry=("congestion",))
        #: Per comparison event derived in this query, its firing
        #: pairs in occurrence order: ``(move rows, intersections,
        #: topology)`` (:class:`CompiledBusComparison`).
        self.fired: dict[str, tuple[np.ndarray, np.ndarray, Any]] = {}
        self._pairs: dict[int, tuple] = {}
        self._agreement: dict[tuple, np.ndarray] = {}
        self._bus_rank: Optional[np.ndarray] = None

    @property
    def congestion(self) -> np.ndarray:
        """Per ``move`` row the congestion value its ``gps`` row
        reports (NaN for none)."""
        return self.move.carried("congestion")

    def gps_rows(self, rows: np.ndarray) -> np.ndarray:
        """The positions in the ``gps`` store of the joined ``gps`` rows
        of ``move`` rows ``rows`` (``-1`` for none)."""
        move = self.move
        return self.gps.first_rows(move.codes[rows], move.times[rows])

    def close(self, topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``close/4`` join, per ``move`` row: ``(starts, lens,
        intersections)`` — the row's position is close to the
        intersections ``intersections[starts[i]:starts[i] + lens[i]]``
        (positions in ``topology.ids()``), none for a row without
        ``gps``.  Decided once per ``gps`` row, when it first shows up
        here, and carried to its ``move`` row with the join."""
        gps = self.gps
        lon, lat = gps.col("lon"), gps.col("lat")
        return self.move.carried_ragged(
            gps,
            ("close", id(topology)),
            lambda rows: topology.close_join(lon[rows], lat[rows]),
            self._gps_decided,
        )

    def pairs(self, topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``close`` pair of the window, expanded once per query:
        ``(move row, intersection, position)`` per pair, rows in store
        order and each row's intersections in
        :meth:`~repro.core.geo.SpatialGrid.near`'s — ``position`` is
        the pair's place in the carried ``close`` column, where
        :meth:`slots` keeps what a reader built for it."""
        found = self._pairs.get(id(topology))
        if found is None:
            starts, lens, pool = self.close(topology)
            at = ragged_index(starts, lens)
            found = self._pairs[id(topology)] = (
                np.repeat(np.arange(self.move.n), lens), pool[at], at
            )
        return found

    def bus_rank(self) -> np.ndarray:
        """Per token code of the window's ``move`` rows, the rank of its
        ``(bus,)`` token among theirs in ``sorted`` order: ``(bus,)``
        keys compare as their codes' ranks do."""
        if self._bus_rank is None:
            self._bus_rank = _ranks(self.move.codes, self.move.tokens.tokens)
        return self._bus_rank

    def slots(self, topology, key) -> np.ndarray:
        """The per-pair object slots of the carried ``close`` column
        under ``key``, indexed by a pair's position (:meth:`pairs`):
        emptied when the row's join is decided anew."""
        return self.move.ragged_slots(("close", id(topology)), key)

    def agreement(self, ctx, topology, scats_fluent: str) -> np.ndarray:
        """Per ``close`` pair (:meth:`pairs`), whether the bus's report
        (its congestion value's truthiness, as the interpreted body
        reads it) agrees with ``holdsAt(scats_fluent(Int) = true, T)``
        — probed for all pairs at once, once per query."""
        memo_key = (id(topology), scats_fluent)
        agreed = self._agreement.get(memo_key)
        if agreed is None:
            rows, intersections, _ = self.pairs(topology)
            scats_says = _holds_index(
                ctx,
                scats_fluent,
                id(topology),
                lambda key: topology.index_of(key[0]),
            ).probe(intersections, self.move.times[rows])
            agreed = self._agreement[memo_key] = (
                (self.congestion[rows] != 0) == scats_says
            )
        return agreed


def _ranks(codes: np.ndarray, keys: Sequence) -> np.ndarray:
    """Per code, the position of ``keys[code]`` in ``sorted`` order of
    the keys of the distinct ``codes`` (indexed by code; distinct codes
    have distinct keys): a Python sort over the distinct keys only."""
    if not len(codes):
        return _NO_POINTS
    present = np.flatnonzero(np.bincount(codes))
    in_order = sorted(
        range(len(present)),
        key=[keys[code] for code in present.tolist()].__getitem__,
    )
    rank = np.zeros(int(present[-1]) + 1, dtype=np.int64)
    rank[present[in_order]] = np.arange(len(present))
    return rank


def recorded_bus_reports(ctx) -> Optional[BusReports]:
    """The context's :class:`BusReports` if a bus-side evaluator has
    built it in this query (``None`` otherwise)."""
    return ctx.memo.get("__bus_reports__")


def bus_reports(ctx) -> BusReports:
    """The context's :class:`BusReports`, its undecided rows joined on
    first use in the query, shared by every bus-side evaluator."""
    reports = recorded_bus_reports(ctx)
    if reports is None:
        reports = ctx.memo["__bus_reports__"] = BusReports(
            ctx.events_columns("move", MOVE_COLUMNS),
            ctx.facts_columns("gps", GPS_COLUMNS),
        )
    return reports


_BUS_COLUMNS = {("event", "move"): MOVE_COLUMNS, ("fact", "gps"): GPS_COLUMNS}


class CompiledDelayIncrease(CompiledRule):
    """Section 4.1's ``delayIncrease``: consecutive-pair deltas per bus.

    ONE flattened pass over all buses, the shape of
    :class:`CompiledTrafficTrend`: rows grouped by bus code with a
    stable sort, one ``np.diff`` each for times and delays with the
    steps that cross a bus boundary masked out.  The pair predicate
    (``0 < dt < t_max`` and ``delay step > d``) is a boolean mask; only
    the (rare) hits reach Python, for the payload, which is built from
    the original cells so integer delay fields survive untouched.
    """

    columns = _BUS_COLUMNS

    def __init__(
        self, name: str, delay_delta: float, delay_window: float
    ):
        self.name = name
        self.delay_delta = delay_delta
        self.delay_window = delay_window

    def derive(self, ctx) -> dict[str, list[Any]]:
        """Vectorised pair predicate over every bus at once; hits take
        their ``gps`` positions from the carried move-gps join and
        build occurrences from the original cells."""
        reports = bus_reports(ctx)
        move = reports.move
        occ: list[Occurrence] = []
        if move.n < 2:
            return {"occ": occ}
        # Codes are small: in their smallest integer type the stable
        # sort is a radix sort, linear in the window.
        codes = move.codes
        order = np.argsort(
            codes.astype(np.min_scalar_type(int(codes.max()))), kind="stable"
        )
        codes = codes[order]
        dt = np.diff(move.times[order])
        dd = np.diff(move.col("delay")[order])
        joined = reports.joined[order]
        hits = np.flatnonzero(
            (codes[1:] == codes[:-1])
            & (dt > 0)
            & (dt < self.delay_window)
            & (dd > self.delay_delta)
            & joined[1:]
            & joined[:-1]
        )
        # A hit is anchored at its later move.  The hits are found bus
        # by bus; they leave in (time, bus) order.
        prev, cur = order[hits], order[hits + 1]
        by_time = np.lexsort(
            (reports.bus_rank()[codes[hits + 1]], move.times[cur])
        )
        prev, cur = prev[by_time], cur[by_time]
        gps = reports.gps
        gps_prev, gps_cur = reports.gps_rows(prev), reports.gps_rows(cur)
        for (
            bus, time, delay_prev, delay_cur, from_lon, from_lat, lon, lat
        ) in zip(
            move.cells("bus", cur),
            move.times[cur].tolist(),
            move.cells("delay", prev),
            move.cells("delay", cur),
            gps.cells("lon", gps_prev),
            gps.cells("lat", gps_prev),
            gps.cells("lon", gps_cur),
            gps.cells("lat", gps_cur),
        ):
            occ.append(
                Occurrence(
                    self.name,
                    (bus,),
                    time,
                    {
                        "bus": bus,
                        "from_lon": from_lon,
                        "from_lat": from_lat,
                        "lon": lon,
                        "lat": lat,
                        "delay_increase": delay_cur - delay_prev,
                    },
                )
            )
        return {"occ": occ}


class CompiledBusComparison(CompiledRule):
    """``disagree`` / ``agree`` (Section 4.3): a bus close to a SCATS
    intersection contradicts or confirms its sensors.

    Both are the same comparison with opposite sign: per ``close`` pair
    of the shared bus-report relation, the bus's congestion value (its
    truthiness, as the interpreted body reads it) against
    ``holdsAt(scatsIntCongestion(Int) = true, T)`` — one probe of all
    pairs per query, shared by the two (:meth:`BusReports.agreement`).

    The comparison is decided anew at every query; what is kept is
    the :class:`~.events.Occurrence` a firing pair was built as, in the
    pair's slot on its ``move`` row (:meth:`BusReports.slots`).  The
    row's join determines every field of the occurrence (bus and time
    are the row's cells, id and location the topology's, ``value`` the
    congestion of the joined ``gps`` row), and a slot is emptied when
    the join is decided anew — a late or duplicate ``gps`` may change
    it — so a pair that fires again gets the object built the first
    time.  These two events fire for most reports of most queries,
    every snapshot is retained by the run's report, and consecutive
    windows overlap: without the slots a run builds each occurrence
    once per window it falls in.  The rule itself holds no state from
    one query to the next.
    """

    columns = _BUS_COLUMNS

    def __init__(
        self, name: str, topology, scats_fluent: str, *, agree: bool
    ):
        self.name = name
        self.topology = topology
        self.scats_fluent = scats_fluent
        self.agree = agree

    def derive(self, ctx) -> dict[str, list[Any]]:
        """The comparison over every report's ``close`` pairs;
        occurrences in ``(time, key)`` order, tied ones in report
        order, then ``near``'s order."""
        reports = bus_reports(ctx)
        topology = self.topology
        rows, intersections, at = reports.pairs(topology)
        agreed = reports.agreement(ctx, topology, self.scats_fluent)
        fires = np.flatnonzero(agreed if self.agree else ~agreed)
        # In (time, key) order; pair order among ties.  ``agree``'s key
        # is ``(bus,)``, ``disagree``'s ``(bus, intersection)``.
        move = reports.move
        rank = reports.bus_rank()[move.codes[rows[fires]]]
        if not self.agree:
            ids = topology.ids()
            fired = intersections[fires]
            rank = rank * len(ids) + _ranks(fired, ids)[fired]
        fires = fires[np.lexsort((rank, move.times[rows[fires]]))]
        reports.fired[self.name] = (
            rows[fires], intersections[fires], topology
        )
        at = at[fires]
        slots = reports.slots(topology, self.name)
        occ = slots[at]
        # An empty slot holds None, the only false object in one.
        missing = np.flatnonzero(~occ.astype(bool))
        if len(missing):
            fresh = fires[missing]
            for n, built in zip(
                missing.tolist(),
                self._occurrences(
                    reports.move,
                    rows[fresh],
                    intersections[fresh],
                    reports.congestion[rows[fresh]] != 0,
                ),
            ):
                occ[n] = slots[at[n]] = built
        return {"occ": occ.tolist()}

    def _occurrences(self, move, rows, intersections, bus_says):
        """The occurrences of the firing pairs ``(rows[i],
        intersections[i])``, built."""
        topology, name = self.topology, self.name
        ids = topology.ids()
        for bus, i, time, says in zip(
            move.cells("bus", rows),
            intersections.tolist(),
            move.times[rows].tolist(),
            bus_says.tolist(),
        ):
            int_id = ids[i]
            if self.agree:
                yield Occurrence(
                    name, (bus,), time, {"bus": bus, "intersection": int_id}
                )
                continue
            lon, lat = topology.location(int_id)
            yield Occurrence(
                name,
                (bus, int_id),
                time,
                {
                    "bus": bus,
                    "intersection": int_id,
                    "lon": lon,
                    "lat": lat,
                    # veracity.POSITIVE / veracity.NEGATIVE
                    "value": "positive" if says else "negative",
                },
            )


class CompiledBusCongestion(CompiledRule):
    """Rule-sets (3) and (3′): ``busCongestion`` at every intersection
    a report is ``close`` to — initiated by a congestion value of 1,
    terminated by 0, anything else ignored; with a ``noisy_fluent``
    the reports of a bus are discarded while ``noisy(Bus)`` holds,
    probed for all reports at once.
    """

    columns = _BUS_COLUMNS

    def __init__(self, topology, noisy_fluent: Optional[str]):
        self.topology = topology
        self.noisy_fluent = noisy_fluent

    def derive(self, ctx) -> dict[str, Any]:
        """Initiations and terminations at the ``close`` pairs of the
        trusted reports, grounded by intersection position."""
        reports = bus_reports(ctx)
        move = reports.move
        ids = self.topology.ids()
        rows, intersections, _ = reports.pairs(self.topology)
        congestion = reports.congestion[rows]
        if self.noisy_fluent is not None and len(rows):
            noisy = _holds_index(
                ctx, self.noisy_fluent, "token", move.tokens.get
            ).probe(move.codes, move.times)
            congestion = np.where(noisy[rows], np.nan, congestion)
        out: dict[str, Any] = {"groundings": lambda i: (ids[i],)}
        for stream, value in (("init", 1), ("term", 0)):
            at = congestion == value
            out[stream] = (intersections[at], move.times[rows[at]])
        return out
