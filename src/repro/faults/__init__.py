"""Deterministic fault injection for the urban-traffic pipeline.

The reproduction's chaos layer: seed-driven drop / delay / duplicate /
corruption faults on the SDE feeds, worker non-response faults in the
crowdsourcing engine, named profiles binding them together, and crash
injection (:class:`CrashInjector`) for the recovery subsystem.  See
``docs/robustness.md`` and ``docs/recovery.md`` for the operator
guides.
"""

from .crash import CrashInjector, SimulatedCrash
from .profiles import BOUNDED_DELAY_S, PROFILES, get_profile
from .spec import (
    CrowdFaults,
    FaultInjector,
    FaultProfile,
    StreamFaults,
    inject_scenario,
)

__all__ = [
    "StreamFaults",
    "CrowdFaults",
    "FaultProfile",
    "FaultInjector",
    "inject_scenario",
    "PROFILES",
    "BOUNDED_DELAY_S",
    "get_profile",
    "CrashInjector",
    "SimulatedCrash",
]
