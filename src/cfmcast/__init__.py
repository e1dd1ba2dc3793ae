"""Cell-free massive MIMO downlink simulator with subgroup multicast service."""

from .config import SystemConfig, preset
from .errors import (
    CampaignError,
    ConfigError,
    NumericalError,
    StatsError,
    SynthesisError,
)
from .geometry import Deployment, build_deployment
from .grouping import kmeans_subgroups, make_plan
from .pilots import PilotPlan, assign_pilots_and_cluster
from .estimation import CompositeStats, composite_stats
from .precoding import cb_precoders
from .evaluation import SeReport
from .harness import CampaignResult, run_campaign, run_campaigns, run_snapshot, write_outputs

__version__ = "0.1.0"

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CompositeStats",
    "ConfigError",
    "Deployment",
    "NumericalError",
    "PilotPlan",
    "SeReport",
    "StatsError",
    "SynthesisError",
    "SystemConfig",
    "assign_pilots_and_cluster",
    "build_deployment",
    "cb_precoders",
    "composite_stats",
    "kmeans_subgroups",
    "make_plan",
    "preset",
    "run_campaign",
    "run_campaigns",
    "run_snapshot",
    "write_outputs",
]
