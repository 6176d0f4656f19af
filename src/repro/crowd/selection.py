"""Worker selection policies (the crowdsourcing *query modelling* part).

"The crowdsourcing component has two independent parts: the query
modelling part whose objective is to select the humans that will be
answering a question, and a query execution engine" (paper, Section 2).
The engine "selects the list of workers L_q to be queried based on the
selected policy (e.g. location, reliability, etc)" (Section 5.3).

A policy is a callable narrowing a candidate list for a task; policies
compose by chaining.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from ..core.geo import distance_m
from .model import DisagreementTask, Participant


class SelectionPolicy(abc.ABC):
    """Narrow the candidate participants for one task."""

    @abc.abstractmethod
    def select(
        self,
        task: DisagreementTask,
        candidates: Sequence[Participant],
    ) -> list[Participant]:
        """Return the selected subset, preserving preference order."""

class AllParticipants(SelectionPolicy):
    """Query everyone (the Fig. 5 experiment queries all 10)."""

    def select(self, task, candidates):
        return list(candidates)


class LocationPolicy(SelectionPolicy):
    """Participants within ``radius_m`` metres of the disagreement.

    The paper "queries volunteers close to the sensors that disagree".
    """

    def __init__(self, radius_m: float = 500.0):
        if radius_m <= 0:
            raise ValueError("radius must be positive")
        self.radius_m = radius_m

    def select(self, task, candidates):
        return [
            p
            for p in candidates
            if distance_m(task.lon, task.lat, p.lon, p.lat) <= self.radius_m
        ]
