"""Entropy-guided query routing over networks of locally trained discrete PGMs."""

from .engine import SimConfig, Strategy, TrialMetrics, run_trial
from .pgm import DiscretePgm, Schema
from .routing import AdvertisementPolicy, Query
from .topology import AttachmentParams, Overlay, generate

__version__ = "0.1.0"

__all__ = [
    "SimConfig",
    "Strategy",
    "TrialMetrics",
    "run_trial",
    "DiscretePgm",
    "Schema",
    "AdvertisementPolicy",
    "Query",
    "AttachmentParams",
    "Overlay",
    "generate",
]
