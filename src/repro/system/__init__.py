"""The integrated system: pipeline, console and Streams embeddings."""

from .console import Alert, OperatorConsole
from .crowdloop import CrowdLoop
from .degradation import DegradationManager, describe_timeline
from .pipeline import RunState, SystemConfig, SystemReport, UrbanTrafficSystem
from .processors import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
)
from .report import render_html_report, write_html_report
from .topology import PaperTopology, build_paper_topology

__all__ = [
    "Alert",
    "OperatorConsole",
    "CrowdLoop",
    "SystemConfig",
    "RunState",
    "SystemReport",
    "UrbanTrafficSystem",
    "DegradationManager",
    "describe_timeline",
    "RtecProcessor",
    "CrowdsourcingProcessor",
    "FluentFeedbackProcessor",
    "PaperTopology",
    "build_paper_topology",
    "render_html_report",
    "write_html_report",
]
