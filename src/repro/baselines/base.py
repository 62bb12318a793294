"""The sharing-scheme interface and its per-batch report.

Every scheme the paper evaluates — Direct Upload, SmartEye, MRC,
BEES-EA, and BEES itself — implements :class:`SharingScheme`: given a
smartphone, a cloud server, and a batch of images, process the batch
(extract, query, upload) while charging all work to the phone's battery
and meter, and return an accounting of what happened.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..obs.journal import bool_field, int_field, number_map_field, str_list_field
from ..obs.runtime import get_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.server import BeesServer
    from ..imaging.image import Image
    from ..sim.device import Smartphone


@dataclass
class BatchReport:
    """What a scheme did with one batch."""

    scheme: str
    n_images: int
    uploaded_ids: list = field(default_factory=list)
    eliminated_cross_batch: list = field(default_factory=list)
    eliminated_in_batch: list = field(default_factory=list)
    sent_bytes: int = 0
    total_seconds: float = 0.0
    per_image_seconds: list = field(default_factory=list)
    #: Detection-phase seconds spent on images that were *eliminated*
    #: before upload — kept out of ``per_image_seconds`` so per-image
    #: delays describe only images that went through the pipeline.
    elimination_seconds: float = 0.0
    energy_by_category: dict = field(default_factory=dict)
    #: ``(stage, simulated seconds)`` per image per pipeline stage, in
    #: the order the pipeline produced them (BEES fills it; it feeds
    #: ``bees_stage_seconds``).
    stage_seconds: list = field(default_factory=list)
    halted: bool = False

    @property
    def n_uploaded(self) -> int:
        """Number of images actually transmitted."""
        return len(self.uploaded_ids)

    @property
    def total_energy_joules(self) -> float:
        """Total joules this batch cost (all categories)."""
        return float(sum(self.energy_by_category.values()))

    @property
    def pipeline_seconds(self) -> float:
        """All simulated seconds the batch cost, elimination included."""
        return self.total_seconds + self.elimination_seconds

    @property
    def average_image_seconds(self) -> float:
        """Mean per-image delay across the *whole* batch.

        The paper's "average delay of uploading an image" (Figure 11)
        divides the batch's total processing time by the batch size —
        eliminated images count with their (small) detection-only cost,
        carried by ``elimination_seconds``.
        """
        if self.n_images == 0:
            return 0.0
        return self.pipeline_seconds / self.n_images

    def to_event(self, round_no: int) -> "dict[str, object]":
        """The ``fleet.batch`` journal payload; key order is the format."""
        return {
            "round": round_no,
            "n_images": self.n_images,
            "uploaded": list(self.uploaded_ids),
            "eliminated_cross": list(self.eliminated_cross_batch),
            "eliminated_in": list(self.eliminated_in_batch),
            "sent_bytes": self.sent_bytes,
            "energy": dict(self.energy_by_category),
            "halted": self.halted,
        }

    @classmethod
    def from_event(cls, data: "Mapping[str, object]") -> "BatchReport":
        """Parse a :meth:`to_event` payload, type-checking every field.

        The payload names no scheme, so ``scheme`` is empty; ``round``
        is checked and dropped (a device's records are in round order).
        """
        int_field(data, "round")
        return cls(
            scheme="",
            n_images=int_field(data, "n_images"),
            uploaded_ids=str_list_field(data, "uploaded"),
            eliminated_cross_batch=str_list_field(data, "eliminated_cross"),
            eliminated_in_batch=str_list_field(data, "eliminated_in"),
            sent_bytes=int_field(data, "sent_bytes"),
            energy_by_category=number_map_field(data, "energy"),
            halted=bool_field(data, "halted"),
        )


class SharingScheme(abc.ABC):
    """Interface of an image-sharing scheme."""

    #: Human-readable scheme name, as used in the paper's figures.
    name: str = "abstract"

    @abc.abstractmethod
    def process_batch(
        self, device: "Smartphone", server: "BeesServer", images: "list[Image]"
    ) -> BatchReport:
        """Process one batch of images end to end.

        Implementations must charge every joule through ``device`` and
        must stop (setting ``halted``) when the battery dies mid-batch.
        """

    def observe_batch(self, report: BatchReport) -> BatchReport:
        """The shared observability hook: fold *report* into the global
        metric set (bytes, joules, eliminations, uploads and stage
        seconds per scheme).

        Every scheme — BEES and baselines alike — returns its finished
        report through this, so per-scheme totals stay comparable no
        matter how a scheme structures its pipeline.  A no-op while
        observability is disabled (the default).
        """
        obs = get_obs()
        if obs.enabled:
            obs.observe_batch_report(report)
        return report
