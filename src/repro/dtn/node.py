"""Delay-tolerant-network nodes with buffer-drop policies.

The paper's related work (Section V) contrasts BEES with DTN schemes —
PhotoNet (RTSS'11) and CARE (HotNets'12) — that eliminate redundant
images *inside the network*: relay nodes have small buffers, and when a
buffer fills, the drop policy decides what survives.  CARE's insight is
to drop by *content*: evict from the most-similar pair so the buffer
stays diverse; the baseline drops FIFO.

These nodes carry images with pre-extracted features (a relay cannot
afford re-extraction; features ride along with the image, exactly as in
CARE).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..core.config import EDR_THRESHOLD_MAX
from ..errors import SimulationError
from ..features.base import FeatureSet
from ..features.similarity import jaccard_similarity
from ..imaging.image import Image
from ..obs.journal import get_journal


@dataclass(frozen=True)
class CarriedImage:
    """An image in flight: payload + its features (for content drops).

    ``intact`` marks whether this *copy* survived its relay hops
    uncorrupted; lossy contacts (:class:`repro.network.lossy.
    ContactLoss`) clear it.  Epidemic routing naturally spreads several
    copies of the same image, so the gateway treats those copies as
    replicas and reconciles per image id — one intact copy repairs the
    delivery.
    """

    image: Image
    features: FeatureSet
    intact: bool = True

    @property
    def image_id(self) -> str:
        return self.image.image_id


class DropPolicy(abc.ABC):
    """Decides what to evict when a full buffer receives a new image."""

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(
        self, buffer: "list[CarriedImage]", candidate: CarriedImage
    ) -> "int | None":
        """Index of the buffer entry to evict, or ``None`` to reject
        *candidate* instead."""


class FifoDropPolicy(DropPolicy):
    """Content-blind baseline: evict the oldest carried image."""

    name = "fifo"

    def select_victim(self, buffer, candidate):
        return 0


class CareDropPolicy(DropPolicy):
    """CARE-style content-aware drop.

    Find the most similar pair among ``buffer + [candidate]`` and evict
    one side of it: if the candidate belongs to the pair it is simply
    rejected (it adds no information); otherwise the buffer member of
    the pair goes.  Ties and the no-similarity case fall back to FIFO.

    Every overflow re-scores every pair of the buffer, and epidemic
    routing spreads copies of one image (sharing one :class:`FeatureSet`)
    over many nodes, so the policy remembers each pair's score, keyed on
    the identity of both feature sets.  An entry holds references to
    both sets, so their ``id()`` cannot be reused by another object
    while it lives.  Equation 2 is symmetric, so a pair is scored once
    whichever order it comes in.  The memo lives as long as the policy:
    :class:`~repro.dtn.routing.EpidemicSimulation` shares one policy
    across its nodes.
    """

    name = "care"

    def __init__(self, similarity_floor: float = EDR_THRESHOLD_MAX) -> None:
        if similarity_floor < 0:
            raise SimulationError("similarity_floor must be >= 0")
        self.similarity_floor = similarity_floor
        self._scores: "dict[tuple[int, int], tuple[FeatureSet, FeatureSet, float]]" = {}

    def _similarity(self, a: FeatureSet, b: FeatureSet) -> float:
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        entry = self._scores.get(key)
        if entry is None:
            entry = self._scores[key] = (a, b, jaccard_similarity(a, b))
        return entry[2]

    def select_victim(self, buffer, candidate):
        best_pair: "tuple[int, int] | None" = None
        best_similarity = self.similarity_floor
        entries = list(buffer) + [candidate]
        candidate_index = len(entries) - 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                similarity = self._similarity(
                    entries[i].features, entries[j].features
                )
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_pair = (i, j)
        if best_pair is None:
            return 0  # nothing redundant: FIFO fallback
        i, j = best_pair
        if j == candidate_index:
            # The candidate duplicates a carried image: reject it.
            return None
        return j  # evict the newer member of the redundant pair


@dataclass
class DtnNode:
    """A buffer-constrained relay."""

    node_id: str
    capacity: int
    policy: DropPolicy = field(default_factory=CareDropPolicy)
    buffer: "list[CarriedImage]" = field(default_factory=list)
    drops: int = field(default=0, init=False)
    rejections: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {self.capacity}")
        if len(self.buffer) > self.capacity:
            raise SimulationError("initial buffer exceeds capacity")

    def carries(self, image_id: str) -> bool:
        """Whether this node already holds *image_id*."""
        return any(entry.image_id == image_id for entry in self.buffer)

    def offer(self, carried: CarriedImage) -> bool:
        """Hand *carried* to this node; returns True if it was kept."""
        if self.carries(carried.image_id):
            return False
        if len(self.buffer) < self.capacity:
            self.buffer.append(carried)
            return True
        victim = self.policy.select_victim(self.buffer, carried)
        journal = get_journal()
        if victim is None:
            self.rejections += 1
            if journal.enabled:
                journal.emit(
                    "dtn.drop",
                    image_id=carried.image_id,
                    node=self.node_id,
                    policy=self.policy.name,
                    kind="rejected",
                    victim=None,
                )
            return False
        if not 0 <= victim < len(self.buffer):
            raise SimulationError(
                f"policy returned invalid victim index {victim}"
            )
        evicted = self.buffer[victim]
        del self.buffer[victim]
        self.drops += 1
        self.buffer.append(carried)
        if journal.enabled:
            journal.emit(
                "dtn.drop",
                image_id=evicted.image_id,
                node=self.node_id,
                policy=self.policy.name,
                kind="evicted",
                victim=evicted.image_id,
            )
        return True

    def take_all(self) -> "list[CarriedImage]":
        """Drain the buffer (delivery to a gateway)."""
        drained = self.buffer
        self.buffer = []
        return drained
