"""Dublin traffic CE definition library (paper Section 4.3).

Use :func:`build_traffic_definitions` to assemble the full rule suite
for an :class:`~repro.core.rtec.RTEC` engine, choosing between *static*
recognition (rule-set (3), all sources always trusted) and
*self-adaptive* recognition (rule-set (3′) plus a ``noisy`` fluent
variant, rule-set (4) or (5)).
"""

from __future__ import annotations

from typing import Any, Literal

from ..rules import Definition
from .bus import (
    DEFAULT_BUS_PARAMS,
    BusCongestion,
    CongestionInTheMake,
    DelayIncrease,
)
from .scats import (
    DEFAULT_SCATS_PARAMS,
    ApproachCongestion,
    ScatsCongestion,
    ScatsIntersectionCongestion,
    StructuredIntersectionCongestion,
    TrafficRegime,
    TrafficTrend,
)
from .topology import Intersection, ScatsTopology
from .veracity import (
    DEFAULT_VERACITY_PARAMS,
    NEGATIVE,
    POSITIVE,
    Agree,
    Disagree,
    NoisyCrowdValidated,
    NoisyPessimistic,
    NoisyScatsIntersection,
    SourceDisagreement,
    TrustedScatsCongestion,
)

__all__ = [
    "Intersection",
    "ScatsTopology",
    "ScatsCongestion",
    "ScatsIntersectionCongestion",
    "ApproachCongestion",
    "StructuredIntersectionCongestion",
    "TrafficTrend",
    "TrafficRegime",
    "DelayIncrease",
    "BusCongestion",
    "CongestionInTheMake",
    "SourceDisagreement",
    "Disagree",
    "Agree",
    "NoisyCrowdValidated",
    "NoisyPessimistic",
    "NoisyScatsIntersection",
    "TrustedScatsCongestion",
    "POSITIVE",
    "NEGATIVE",
    "build_traffic_definitions",
    "default_traffic_params",
    "FEED_OF_DEFINITION",
    "feeds_of_definition",
]

#: Which SDE feed(s) each definition is derived from.  ``("scats",)``
#: and ``("bus",)`` mark single-feed definitions; cross-source
#: definitions (the veracity suite) list both.  The degradation layer
#: (:mod:`repro.system.degradation`) uses this map to decide which CE
#: results survive a feed outage: a definition is only trustworthy
#: while every feed it reads is alive.
FEED_OF_DEFINITION: dict[str, tuple[str, ...]] = {
    "scatsCongestion": ("scats",),
    "scatsIntCongestion": ("scats",),
    "approachCongestion": ("scats",),
    "flowTrend": ("scats",),
    "densityTrend": ("scats",),
    "trafficRegime": ("scats",),
    "delayIncrease": ("bus",),
    "congestionInTheMake": ("bus",),
    "busCongestion": ("bus",),
    "disagree": ("scats", "bus"),
    "agree": ("scats", "bus"),
    "noisy": ("scats", "bus"),
    "noisyScats": ("scats", "bus"),
    "trustedScatsCongestion": ("scats", "bus"),
    "sourceDisagreement": ("scats", "bus"),
}


def feeds_of_definition(name: str) -> tuple[str, ...]:
    """The feeds a definition depends on (empty for unknown names —
    unknown definitions are never suppressed by degradation)."""
    return FEED_OF_DEFINITION.get(name, ())


def default_traffic_params() -> dict[str, Any]:
    """The merged default thresholds of all traffic CE definitions."""
    params: dict[str, Any] = {}
    params.update(DEFAULT_SCATS_PARAMS)
    params.update(DEFAULT_BUS_PARAMS)
    params.update(DEFAULT_VERACITY_PARAMS)
    return params


def build_traffic_definitions(
    topology: ScatsTopology,
    *,
    adaptive: bool = False,
    noisy_variant: Literal["crowd", "pessimistic"] = "crowd",
    include_trends: bool = True,
    structured_intersections: bool = False,
    scats_reliability: bool = False,
) -> list[Definition]:
    """Assemble the Dublin CE definition suite.

    Parameters
    ----------
    topology:
        SCATS intersections and the ``close`` predicate configuration.
    adaptive:
        ``False`` reproduces *static* recognition (rule-set (3)):
        every source is always trusted.  ``True`` reproduces
        *self-adaptive* recognition: the ``noisy`` fluent is maintained
        and ``busCongestion`` follows rule-set (3′).
    noisy_variant:
        Which ``noisy(Bus)`` definition to use when ``adaptive``:
        ``"crowd"`` for rule-set (4) (crowd-validated) or
        ``"pessimistic"`` for rule-set (5) (any disagreement counts).
    include_trends:
        Whether to include the flow/density trend fluents.
    structured_intersections:
        Use the structured intersection-congestion definition
        (sensor -> approach -> intersection) instead of the flat
        at-least-n-sensors one.
    scats_reliability:
        Also evaluate SCATS reliability from crowd answers (the
        ``noisyScats`` fluent and the ``trustedScatsCongestion`` view)
        — the formalisation Section 4.3 mentions but omits.
    """
    definitions = [ScatsCongestion()]
    if structured_intersections:
        definitions.append(ApproachCongestion(topology))
        definitions.append(StructuredIntersectionCongestion(topology))
    else:
        definitions.append(ScatsIntersectionCongestion(topology))
    definitions.append(DelayIncrease())
    definitions.append(CongestionInTheMake())
    if include_trends:
        definitions.append(TrafficTrend("flow"))
        definitions.append(TrafficTrend("density"))
        definitions.append(TrafficRegime())
    if adaptive:
        definitions.append(Disagree(topology))
        definitions.append(Agree(topology))
        if noisy_variant == "crowd":
            definitions.append(NoisyCrowdValidated())
        elif noisy_variant == "pessimistic":
            definitions.append(NoisyPessimistic())
        else:
            raise ValueError(
                f"unknown noisy variant: {noisy_variant!r} "
                "(expected 'crowd' or 'pessimistic')"
            )
        definitions.append(BusCongestion(topology, adaptive=True))
    else:
        definitions.append(BusCongestion(topology, adaptive=False))
    definitions.append(SourceDisagreement(topology))
    if scats_reliability:
        if not adaptive:
            raise ValueError(
                "scats_reliability requires adaptive recognition (it "
                "consumes the disagree events)"
            )
        definitions.append(NoisyScatsIntersection())
        definitions.append(TrustedScatsCongestion())
    return definitions
