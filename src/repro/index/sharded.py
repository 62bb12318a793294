"""A sharded, thread-safe variant of the server feature index.

The fleet runtime (:mod:`repro.fleet`) drives many devices into the
server concurrently, which turns the single :class:`~repro.index.index.
FeatureIndex` into a serialization point.  :class:`ShardedFeatureIndex`
splits the stored images over *K* independent shards so concurrent
writers only contend when they hash to the same shard, while readers
never take a lock at all.

Design notes, because the equivalence guarantee depends on them:

* **Shard routing hashes the stable image id** (blake2b), *not* an LSH
  band.  LSH-based routing would have to duplicate images across shards
  to stay exact; id-hashing keeps every image in exactly one shard, so
  a merged query answer is exact by construction.
* **All shards share one LSH geometry.**  Every shard is built with the
  same ``(n_tables, bits_per_key, seed)``, so the sampled bit subsets
  are identical and a query's hash keys are computed **once** and
  reused against every shard (:meth:`FeatureIndex.hash_keys` documents
  this contract).
* **Votes merge exactly.**  An image's LSH vote count depends only on
  its own descriptors and the query, never on other stored images, so
  the union of per-shard vote dicts equals the single-index vote dict.
  Ranking and verifying the merged votes with the single index's own
  :func:`~repro.index.index.verify_votes` therefore returns
  **byte-identical** answers to a single index over the same images —
  the property the fleet differential tests pin.
* **Reads are lock-free.**  A shard's ``add`` appends to its entry list,
  then publishes its copy-on-write posting list (one tuple swap per
  insert); a concurrent reader binds the tuple once per vote, so it sees
  every insert whole or not at all, never a torn one.  The fleet runner
  additionally never interleaves queries with writes for the *same*
  round (round barrier), so readers observe a frozen index.  Writer
  locks serialise writer/writer races within a shard.  The fleet runner
  commits every write on its coordinator thread at the round barrier,
  so no program path contends for them today; they keep direct
  concurrent ``add`` callers safe.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from ..errors import IndexError_
from ..features.base import FeatureSet
from ..kernels.voting import group_query_keys
from ..obs.journal import get_journal
from .index import FeatureIndex, QueryResult, verify_votes

DEFAULT_N_SHARDS = 4


def shard_of(image_id: str, n_shards: int) -> int:
    """The shard an image id routes to (stable blake2b, mod *n_shards*).

    Stable across processes and Python hash randomisation — the fleet
    equivalence tests replay runs in fresh processes and expect the
    same placement every time.
    """
    digest = hashlib.blake2b(image_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


@dataclass
class ShardedFeatureIndex:
    """K same-geometry :class:`FeatureIndex` shards behind one API.

    Drop-in compatible with :class:`FeatureIndex` for everything the
    server touches (``add`` / ``query`` / ``query_top`` / ``__len__`` /
    ``__contains__`` / ``features_of`` / ``image_ids``), plus per-shard
    introspection.
    """

    kind: str = "orb"
    n_shards: int = DEFAULT_N_SHARDS
    verify_top_k: int = 5
    n_tables: int = 8
    bits_per_key: int = 16
    seed: int = 7
    _shards: "list[FeatureIndex]" = field(init=False, repr=False)
    _locks: "list[threading.Lock]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise IndexError_(f"n_shards must be >= 1, got {self.n_shards}")
        self._shards = [
            FeatureIndex(
                kind=self.kind,
                verify_top_k=self.verify_top_k,
                n_tables=self.n_tables,
                bits_per_key=self.bits_per_key,
                seed=self.seed,
            )
            for _ in range(self.n_shards)
        ]
        self._locks = [threading.Lock() for _ in range(self.n_shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._shards[self.shard_of(image_id)]

    def shard_of(self, image_id: str) -> int:
        """The shard index *image_id* routes to."""
        return shard_of(image_id, self.n_shards)

    def shard_sizes(self) -> "list[int]":
        """Entries per shard, in shard order."""
        return [len(shard) for shard in self._shards]

    # -- mutation ------------------------------------------------------------

    def add(self, features: FeatureSet) -> None:
        """Index one image's features on its shard (thread-safe)."""
        image_id = features.image_id
        if not image_id:
            raise IndexError_("features must carry an image_id to be indexed")
        shard_no = self.shard_of(image_id)
        with self._locks[shard_no]:
            self._shards[shard_no].add(features)
            size = len(self._shards[shard_no])
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "index.route",
                image_id=image_id,
                shard=shard_no,
                n_shards=self.n_shards,
                shard_size=size,
            )

    # -- queries (lock-free) -------------------------------------------------

    def _merged_votes(self, features: FeatureSet) -> "dict[str, int]":
        if len(features) == 0 or not len(self):
            return {}
        # One hash pass serves every shard: identical LSH geometry.
        packed = self._shards[0].packed_descriptors(features)
        keys = self._shards[0].hash_keys(packed)
        # Group (fused unique+counts) once here; each shard only
        # gathers its own posting runs from the shared form.
        grouped = group_query_keys(keys, self.bits_per_key)
        votes: "dict[str, int]" = {}
        for shard in self._shards:
            if len(shard):
                votes.update(shard.vote_counts_from_grouped(grouped))
        return votes

    def query_top(self, features: FeatureSet, k: int) -> "list[tuple[str, float]]":
        """The *k* most similar stored images, merged across shards.

        Byte-identical to :meth:`FeatureIndex.query_top` over the same
        image set (see the module docstring for why).
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        return verify_votes(
            features,
            self._merged_votes(features),
            k,
            self.verify_top_k,
            self.features_of,
        )

    def query(self, features: FeatureSet) -> QueryResult:
        """Maximum similarity against all shards (CBRD's primitive)."""
        return QueryResult.best_of(
            self.query_top(features, 1), len(self), self.verify_top_k
        )

    # -- introspection -------------------------------------------------------

    def features_of(self, image_id: str) -> FeatureSet:
        """The stored feature set of one indexed image."""
        return self._shards[self.shard_of(image_id)].features_of(image_id)

    def image_ids(self) -> "list[str]":
        """All indexed image ids, sorted (stable under arrival order)."""
        merged: "list[str]" = []
        for shard in self._shards:
            merged.extend(shard.image_ids())
        return sorted(merged)
