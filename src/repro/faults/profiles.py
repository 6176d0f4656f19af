"""Named, ready-to-use fault profiles.

Profiles are the operator-facing vocabulary of the chaos tooling: the
CLI's ``--faults <profile>`` flag, ``repro-traffic faults --list`` and
:class:`~repro.system.pipeline.SystemConfig.fault_profile` all resolve
names through :func:`get_profile`.  Each profile is a frozen
:class:`~repro.faults.spec.FaultProfile`; reseed one with
``get_profile(name).with_seed(s)`` for independent chaos runs.
"""

from __future__ import annotations

import difflib

from .spec import CrowdFaults, FaultProfile, StreamFaults

#: Delay bound used by the bounded-delay profiles.  Chosen so that with
#: the default system window/step (600/300) the delay stays within
#: ``window - step`` and recognition is provably unaffected (Figure 2).
BOUNDED_DELAY_S = 300

PROFILES: dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(
            name="none",
            description="no injected faults (baseline for chaos diffs)",
        ),
        FaultProfile(
            name="lossy_scats",
            description=(
                "30% SCATS record loss plus occasional flat-lined "
                "flow/density readings"
            ),
            scats=StreamFaults(
                drop_rate=0.3,
                corrupt_rate=0.05,
                corrupt_fields=("flow", "density"),
            ),
        ),
        FaultProfile(
            name="delayed_bus",
            description=(
                "half of the bus SDEs arrive up to 4 minutes late "
                "(out-of-order delivery)"
            ),
            bus=StreamFaults(delay_rate=0.5, max_delay_s=240),
        ),
        FaultProfile(
            name="bounded_delay",
            description=(
                "every SDE of both feeds may arrive up to "
                f"{BOUNDED_DELAY_S}s late; with window - step >= "
                f"{BOUNDED_DELAY_S}s recognition is unaffected (Fig. 2)"
            ),
            scats=StreamFaults(delay_rate=1.0, max_delay_s=BOUNDED_DELAY_S),
            bus=StreamFaults(delay_rate=1.0, max_delay_s=BOUNDED_DELAY_S),
        ),
        FaultProfile(
            name="blackout_scats",
            description=(
                "total SCATS outage: every sensor record lost "
                "(drives the feed breaker open)"
            ),
            scats=StreamFaults(drop_rate=1.0),
        ),
        FaultProfile(
            name="duplicating_mediator",
            description=(
                "an at-least-once mediator: 20% of records on both "
                "feeds are delivered twice"
            ),
            scats=StreamFaults(duplicate_rate=0.2),
            bus=StreamFaults(duplicate_rate=0.2),
        ),
        FaultProfile(
            name="noisy_buses",
            description=(
                "15% of gps congestion bits flipped in transit "
                "(the noisy(Bus) motivation)"
            ),
            bus=StreamFaults(
                corrupt_rate=0.15, corrupt_fields=("congestion",)
            ),
        ),
        FaultProfile(
            name="flaky_crowd",
            description=(
                "40% of crowd workers never answer, 20% answer past "
                "the reply window"
            ),
            crowd=CrowdFaults(no_response_rate=0.4, timeout_rate=0.2),
        ),
        FaultProfile(
            name="chaos_day",
            description=(
                "lossy SCATS + delayed buses + flaky crowd: the "
                "everything-goes-wrong rehearsal"
            ),
            scats=StreamFaults(
                drop_rate=0.3,
                corrupt_rate=0.05,
                corrupt_fields=("flow", "density"),
            ),
            bus=StreamFaults(delay_rate=0.5, max_delay_s=240),
            crowd=CrowdFaults(no_response_rate=0.4, timeout_rate=0.2),
        ),
    )
}


def get_profile(name: str) -> FaultProfile:
    """Resolve a profile by name (closest-match hint on a miss)."""
    try:
        return PROFILES[name]
    except KeyError:
        close = difflib.get_close_matches(name, PROFILES, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown fault profile {name!r}{hint}; known profiles: "
            f"{', '.join(sorted(PROFILES))}"
        ) from None
