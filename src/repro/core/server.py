"""The cloud-server side of BEES.

The server holds the feature index (for CBRD queries) and the image
store (received images with geotags — the coverage analysis reads it).
Per the paper, the server runs on well-provisioned machines, so the
simulation charges no energy to it; its role is to answer queries and
grow the index as images arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SimulationError
from ..features.base import FeatureSet
from ..imaging.image import Image
from ..index import FeatureIndex, ImageStore, QueryResult
from ..obs.journal import get_journal


@dataclass
class BeesServer:
    """Cloud endpoint: feature index + image store."""

    index: FeatureIndex = field(default_factory=FeatureIndex)
    store: ImageStore = field(default_factory=ImageStore)
    #: Bytes of the per-image query response (the verdict is tiny).
    query_response_bytes: int = 64
    queries_served: int = field(default=0, init=False)

    def query_features(self, features: FeatureSet) -> QueryResult:
        """Answer a CBRD query: the max similarity over stored images."""
        self.queries_served += 1
        return self.index.query(features)

    def query_top(self, features: FeatureSet, k: int) -> "list[tuple[str, float]]":
        """Top-*k* most similar stored images (precision experiments)."""
        return self.index.query_top(features, k)

    def receive_image(
        self,
        image: Image,
        features: FeatureSet,
        received_bytes: Optional[int] = None,
    ) -> None:
        """Accept an uploaded image: store it and index its features.

        "The servers add the features of the uploaded images into the
        index for redundancy detection once receiving the images."
        """
        if features.image_id != image.image_id:
            raise SimulationError(
                f"feature id {features.image_id!r} does not match image "
                f"{image.image_id!r}"
            )
        self.store.add(image, received_bytes=received_bytes)
        self.index.add(features)
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "server.index",
                image_id=image.image_id,
                received_bytes=received_bytes,
                index_size=len(self.index),
            )

    def seed_image(self, image: Image, features: FeatureSet) -> None:
        """Pre-populate the server (experiment setup: cross-batch
        redundancy is created by "adding redundant images into the
        servers" before the measured run)."""
        self.receive_image(image, features, received_bytes=0)

    def __len__(self) -> int:
        return len(self.store)
