"""End-to-end simulation harness: phones, sessions, experiment drivers."""

from .coveragesim import CoverageExperiment, CoverageResult
from .device import Smartphone
from .lifetime import LifetimeExperiment, LifetimePoint, LifetimeResult
from .session import UploadSession, build_server, scheme_extractor

__all__ = [
    "CoverageExperiment",
    "CoverageResult",
    "LifetimeExperiment",
    "LifetimePoint",
    "LifetimeResult",
    "Smartphone",
    "UploadSession",
    "build_server",
    "scheme_extractor",
]
