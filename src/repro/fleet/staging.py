"""Round staging: per-device write buffering against the shared server.

The fleet runs with **round-barrier** semantics: within one round every
device's CBRD queries see the shared index *frozen* at the previous
round's end, and every device's uploads are buffered and committed at
the barrier, in device order.  This matches the paper's server model —
"the servers add the features of the uploaded images into the index ...
once receiving the images" — under the reading that uploads in flight
during the same capture interval are not yet visible to each other, and
it makes a device's decisions independent of where it sits in the
device order: no device ever observes another device's same-round
uploads.

:class:`StagedServer` is the per-device, per-round view that implements
this.  Reads pass through to the shared :class:`~repro.core.server.
BeesServer` (the index is frozen for the round); writes land in a local
staging list the runner flushes with :meth:`commit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.server import BeesServer
from ..errors import SimulationError
from ..features.base import FeatureSet
from ..imaging.image import Image
from ..index import QueryResult


@dataclass(frozen=True)
class StagedUpload:
    """One buffered ``receive_image`` (or bare store ``add``) call."""

    image: Image
    #: ``None`` for store-only writes (Direct Upload without server-side
    #: indexing); otherwise indexed at commit exactly like the real
    #: server would have.
    features: "FeatureSet | None"
    received_bytes: "int | None"


class _StagingStore:
    """Duck-types the ``server.store.add`` surface schemes touch."""

    def __init__(self, owner: "StagedServer") -> None:
        self._owner = owner

    def add(self, image: Image, received_bytes: "int | None" = None) -> None:
        self._owner.staged.append(
            StagedUpload(image=image, features=None, received_bytes=received_bytes)
        )


class StagedServer:
    """One device's round-frozen view of the shared server.

    Exposes the full surface schemes use (``query_features`` /
    ``query_top`` / ``receive_image`` / ``query_response_bytes`` /
    ``store.add``); queries answer from the
    shared server, writes stage locally until :meth:`commit`.
    """

    def __init__(self, base: BeesServer) -> None:
        self.base = base
        self.staged: "list[StagedUpload]" = []
        self.store = _StagingStore(self)

    @property
    def query_response_bytes(self) -> int:
        return self.base.query_response_bytes

    @property
    def index(self):
        """The shared (round-frozen) index — read-only by contract."""
        return self.base.index

    def query_features(self, features: FeatureSet) -> QueryResult:
        return self.base.query_features(features)

    def query_top(self, features: FeatureSet, k: int) -> "list[tuple[str, float]]":
        return self.base.query_top(features, k)

    def receive_image(
        self,
        image: Image,
        features: FeatureSet,
        received_bytes: Optional[int] = None,
    ) -> None:
        """Buffer an upload for the round barrier."""
        if features.image_id != image.image_id:
            raise SimulationError(
                f"feature id {features.image_id!r} does not match image "
                f"{image.image_id!r}"
            )
        self.staged.append(
            StagedUpload(
                image=image, features=features, received_bytes=received_bytes
            )
        )

    def commit(self) -> int:
        """Flush staged uploads into the shared server, in stage order.

        Called by the runner at the round barrier, devices in device
        order — the single serialization point of a fleet round.
        Returns the number of uploads committed.
        """
        count = len(self.staged)
        for upload in self.staged:
            if upload.features is None:
                self.base.store.add(
                    upload.image, received_bytes=upload.received_bytes
                )
            else:
                self.base.receive_image(
                    upload.image,
                    upload.features,
                    received_bytes=upload.received_bytes,
                )
        self.staged.clear()
        return count

    def __len__(self) -> int:
        return len(self.base) + len(self.staged)
