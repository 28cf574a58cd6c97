"""Entropy-guided query routing over networks of locally trained discrete PGMs."""

from .engine import SimConfig, Strategy, TrialMetrics, run_trial
from .routing import AdvertisementPolicy
from .topology import AttachmentParams, Overlay, generate

__version__ = "0.1.0"

__all__ = [
    "SimConfig",
    "Strategy",
    "TrialMetrics",
    "run_trial",
    "AdvertisementPolicy",
    "AttachmentParams",
    "Overlay",
    "generate",
]
