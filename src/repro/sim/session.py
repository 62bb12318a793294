"""Session orchestration: running schemes over batches with matched servers.

Each scheme queries an index of its *own* feature kind (SmartEye cannot
query ORB descriptors), so experiments that compare schemes build one
server per scheme, seeded with the same ground-truth redundant images —
exactly how the paper "adds redundant images into the servers" before a
measured run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.base import BatchReport, SharingScheme
from ..core.server import BeesServer
from ..errors import SimulationError
from ..features.orb import OrbExtractor
from ..imaging.image import Image
from ..index import FeatureIndex
from .device import Smartphone


def scheme_extractor(scheme: SharingScheme):
    """The feature extractor a scheme uses (for seeding its server)."""
    extractor = getattr(scheme, "extractor", None)
    if extractor is not None:
        return extractor
    afe = getattr(scheme, "afe", None)
    if afe is not None:
        return afe.extractor
    return OrbExtractor()


def build_server(
    scheme: SharingScheme, seed_images: "list[Image] | None" = None
) -> BeesServer:
    """A fresh server whose index matches *scheme*'s feature kind.

    ``seed_images`` are pre-loaded (features extracted server-side) to
    establish the experiment's cross-batch redundancy.
    """
    extractor = scheme_extractor(scheme)
    server = BeesServer(index=FeatureIndex(kind=extractor.kind))
    for image in seed_images or []:
        server.seed_image(image, extractor.extract(image))
    return server


@dataclass
class UploadSession:
    """One phone running one scheme against one server."""

    scheme: SharingScheme
    device: Smartphone
    server: BeesServer
    reports: "list[BatchReport]" = field(default_factory=list)

    def run_batch(self, images: "list[Image]") -> BatchReport:
        """Process one batch and keep its report."""
        if not images:
            raise SimulationError("cannot run an empty batch")
        report = self.scheme.process_batch(self.device, self.server, images)
        self.reports.append(report)
        return report

    def run(self, batches: "list[list[Image]]") -> "list[BatchReport]":
        """Process batches in order, stopping when the battery dies."""
        for batch in batches:
            report = self.run_batch(batch)
            if report.halted or not self.device.alive:
                break
        return self.reports

    # -- aggregates -------------------------------------------------------

    @property
    def total_energy_joules(self) -> float:
        return float(sum(report.total_energy_joules for report in self.reports))

    @property
    def total_bytes(self) -> int:
        return int(sum(report.sent_bytes for report in self.reports))

    @property
    def total_uploaded(self) -> int:
        return int(sum(report.n_uploaded for report in self.reports))
