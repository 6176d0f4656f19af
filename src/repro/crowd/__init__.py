"""Crowdsourcing for veracity resolution (the paper's Section 5).

* :mod:`repro.crowd.model` — the participant/answer model (eqs. 6–7);
* :mod:`repro.crowd.em` — batch EM baseline (eqs. 8–11);
* :mod:`repro.crowd.online_em` — streaming EM (Algorithm 1);
* :mod:`repro.crowd.selection` — worker selection policies;
* :mod:`repro.crowd.latency` — Figure 6 latency calibration;
* :mod:`repro.crowd.engine` — MapReduce-style query execution engine;
* :mod:`repro.crowd.component` — the integrated facade.
"""

from .baselines import MajorityVote, SequentialBayes
from .component import CrowdsourcingComponent, CrowdsourcingOutcome
from .em import BatchEM, BatchEMResult, answer_likelihood, posterior_over_labels
from .engine import (
    CrowdQuery,
    MapTaskExecution,
    QueryExecutionEngine,
    QueryExecutionResult,
)
from .latency import (
    COMMUNICATION_LATENCY,
    CONNECTION_TYPES,
    PUSH_LATENCY,
    TRIGGER_RANGE_MS,
    LatencyModel,
    StepLatency,
)
from .model import (
    CONGESTION_LABEL,
    TRAFFIC_LABELS,
    AnswerSet,
    DisagreementTask,
    Participant,
    simulate_answers,
    uniform_prior,
    validate_distribution,
)
from .online_em import (
    CrowdEstimate,
    OnlineEM,
    harmonic_gamma,
    paper_printed_gamma,
)
from .priors import bus_report_prior
from .probes import (
    ProbeReading,
    ProbeResult,
    SensorProbe,
    execute_probe,
)
from .rewards import RewardLedger, RewardPolicy
from .selection import (
    AllParticipants,
    LocationPolicy,
    SelectionPolicy,
)

__all__ = [
    "TRAFFIC_LABELS",
    "CONGESTION_LABEL",
    "DisagreementTask",
    "Participant",
    "AnswerSet",
    "simulate_answers",
    "uniform_prior",
    "validate_distribution",
    "answer_likelihood",
    "posterior_over_labels",
    "BatchEM",
    "BatchEMResult",
    "OnlineEM",
    "CrowdEstimate",
    "harmonic_gamma",
    "paper_printed_gamma",
    "SelectionPolicy",
    "AllParticipants",
    "LocationPolicy",
    "LatencyModel",
    "StepLatency",
    "PUSH_LATENCY",
    "COMMUNICATION_LATENCY",
    "TRIGGER_RANGE_MS",
    "CONNECTION_TYPES",
    "CrowdQuery",
    "QueryExecutionEngine",
    "QueryExecutionResult",
    "MapTaskExecution",
    "CrowdsourcingComponent",
    "CrowdsourcingOutcome",
    "bus_report_prior",
    "RewardPolicy",
    "RewardLedger",
    "SensorProbe",
    "ProbeReading",
    "ProbeResult",
    "execute_probe",
    "MajorityVote",
    "SequentialBayes",
]
