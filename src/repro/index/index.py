"""The server-side feature index.

CBRD (Section III-B1) works by querying this index: the client uploads
an image's features, the server returns the *maximum similarity* — the
similarity to the most similar stored image.  The client compares that
against the threshold ``T`` to decide redundancy.

Queries shortlist candidates via LSH descriptor votes and then compute
the exact Equation-2 Jaccard similarity against only the top-voted
candidates, the standard two-stage design of content-based indexes.

Query results are **insertion-order independent**: the vote shortlist
and the verified results are ranked on ``(score, image_id)`` — never on
dict/arrival order — so two indexes holding the same images always
answer identically, no matter the order the images arrived in.  The
sharded index (:mod:`repro.index.sharded`) relies on this to return
byte-identical answers to a single index, and the fleet differential
tests (:mod:`repro.fleet`) rely on it to not flake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import IndexError_
from ..features.base import FeatureSet
from ..features.matching import resolve_threshold
from ..features.similarity import _check_kind, _pair_jaccard, prepare_set
from ..kernels.voting import GroupedKeys
from .lsh import (
    FLOAT_SKETCH_BITS,
    HammingLSH,
    float_sketch_planes,
    sketch_float_descriptors,
)


def rank_votes(votes: "dict[str, int]", limit: int) -> "list[str]":
    """Image ids ranked by ``(votes desc, image_id asc)``, truncated.

    The deterministic shortlist order shared by the single and sharded
    indexes: vote count first, stable image id as the tie-break, so the
    ranking never depends on dict iteration or arrival order.
    """
    ranked = sorted(votes, key=lambda image_id: (-votes[image_id], image_id))
    return ranked[:limit]


def verify_candidates(
    query: FeatureSet, candidates: "list[FeatureSet]", k: int
) -> "list[tuple[str, float]]":
    """Exact Equation-2 scores for *candidates*, best-*k* first.

    Equal to :func:`~repro.features.similarity.jaccard_similarity` on
    every candidate; the query is prepared and its ceiling resolved once.
    Sorted by ``(similarity desc, image_id asc)`` — the same
    deterministic tie-break as :func:`rank_votes`.
    """
    prepared = prepare_set(query)
    limit = resolve_threshold(query.kind, None)
    scored = []
    for candidate in candidates:
        _check_kind(query.kind, candidate)
        score = _pair_jaccard(prepared, prepare_set(candidate), limit)
        scored.append((candidate.image_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def verify_votes(
    query: FeatureSet,
    votes: "dict[str, int]",
    k: int,
    verify_top_k: int,
    features_of: "Callable[[str], FeatureSet]",
) -> "list[tuple[str, float]]":
    """The votes → rank → verify path every index query runs.

    Shortlists the ``max(k, verify_top_k)`` best-voted images
    (:func:`rank_votes`), looks each one up with *features_of* and
    returns the best-*k* exact scores (:func:`verify_candidates`).  No
    votes means no candidates: the answer is empty.
    """
    if not votes:
        return []
    shortlist = rank_votes(votes, max(k, verify_top_k))
    candidates = [features_of(image_id) for image_id in shortlist]
    return verify_candidates(query, candidates, k)


@dataclass(frozen=True)
class QueryResult:
    """The server's answer to a feature query."""

    best_id: Optional[str]
    best_similarity: float
    candidates_checked: int

    @property
    def found(self) -> bool:
        """Whether any stored image produced a non-zero similarity."""
        return self.best_id is not None

    @classmethod
    def best_of(
        cls, top: "list[tuple[str, float]]", n_entries: int, verify_top_k: int
    ) -> "QueryResult":
        """CBRD's answer from a verified top list over *n_entries* images."""
        if not top:
            return NO_MATCH
        best_id, best_similarity = top[0]
        return cls(
            best_id=best_id,
            best_similarity=best_similarity,
            candidates_checked=min(n_entries, verify_top_k),
        )


#: The answer when no stored image shares an LSH bucket with the query.
NO_MATCH = QueryResult(best_id=None, best_similarity=0.0, candidates_checked=0)


@dataclass
class FeatureIndex:
    """LSH-accelerated index of per-image feature sets."""

    kind: str = "orb"
    verify_top_k: int = 5
    n_tables: int = 8
    bits_per_key: int = 16
    seed: int = 7
    _entries: list = field(default_factory=list, init=False, repr=False)
    _ids: dict = field(default_factory=dict, init=False, repr=False)
    _lsh: HammingLSH = field(init=False, repr=False)
    _planes: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.verify_top_k < 1:
            raise IndexError_(f"verify_top_k must be >= 1, got {self.verify_top_k}")
        n_bits = 256 if self.kind == "orb" else FLOAT_SKETCH_BITS
        self._lsh = HammingLSH(
            n_bits=n_bits,
            n_tables=self.n_tables,
            bits_per_key=self.bits_per_key,
            seed=self.seed,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._ids

    # -- internals ----------------------------------------------------------

    def _packed(self, features: FeatureSet) -> np.ndarray:
        if features.kind != self.kind:
            raise IndexError_(
                f"index stores {self.kind!r} features, got {features.kind!r}"
            )
        if self.kind == "orb":
            return features.descriptors
        if self._planes is None:
            dim = features.descriptors.shape[1]
            self._planes = float_sketch_planes(dim, FLOAT_SKETCH_BITS, self.seed)
        return sketch_float_descriptors(features.descriptors, self._planes)

    # -- public API ----------------------------------------------------------

    def add(self, features: FeatureSet) -> None:
        """Index the features of one uploaded image."""
        image_id = features.image_id
        if not image_id:
            raise IndexError_("features must carry an image_id to be indexed")
        if image_id in self._ids:
            raise IndexError_(f"image {image_id!r} is already indexed")
        ref = len(self._entries)
        packed = self._packed(features) if len(features) else None
        # Publish the entry before any bucket holds its ref: lock-free
        # readers resolve every ref they can see to an entry and an id.
        self._entries.append(features)
        self._ids[image_id] = ref
        if packed is not None:
            self._lsh.add(packed, ref)

    def packed_descriptors(self, features: FeatureSet) -> np.ndarray:
        """The LSH-ready packed binary form of *features*' descriptors."""
        return self._packed(features)

    def hash_keys(self, packed: np.ndarray) -> np.ndarray:
        """Per-table LSH hash keys for packed descriptor rows.

        Indexes built with the same ``(n_tables, bits_per_key, seed)``
        sample identical bit subsets, so keys computed once are valid
        for every shard of a sharded index.
        """
        return self._lsh.keys(packed)

    def vote_counts_from_grouped(self, grouped: "GroupedKeys") -> "dict[str, int]":
        """LSH votes for keys already fused and deduplicated.

        Shard fan-out entry point: the coordinator groups a query's
        keys once (:func:`~repro.kernels.voting.group_query_keys`) and
        every shard gathers its buckets from the shared grouped form
        instead of re-running the unique pass.  Counts equal
        :meth:`vote_counts` exactly.
        """
        votes = self._lsh.votes_from_grouped(grouped)
        return {self._entries[ref].image_id: count for ref, count in votes.items()}

    def vote_counts(self, features: FeatureSet) -> "dict[str, int]":
        """LSH votes per stored ``image_id`` for a query feature set."""
        if not self._entries or len(features) == 0:
            return {}
        votes = self._lsh.votes(self._packed(features))
        return {self._entries[ref].image_id: count for ref, count in votes.items()}

    def features_of(self, image_id: str) -> FeatureSet:
        """The stored feature set of one indexed image."""
        try:
            return self._entries[self._ids[image_id]]
        except KeyError:
            raise IndexError_(f"image {image_id!r} is not indexed") from None

    def image_ids(self) -> "list[str]":
        """All indexed image ids, sorted (stable under arrival order)."""
        return sorted(self._ids)

    def query_top(self, features: FeatureSet, k: int) -> list[tuple[str, float]]:
        """The *k* most similar stored images as ``(image_id, similarity)``.

        Results are sorted by ``(similarity desc, image_id asc)``.  Only
        LSH-voted candidates are exactly verified, so images sharing no
        descriptor buckets with the query never appear (their similarity
        would be ~0 anyway).
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        return verify_votes(
            features,
            self.vote_counts(features),
            k,
            self.verify_top_k,
            self.features_of,
        )

    def query(self, features: FeatureSet) -> QueryResult:
        """Maximum similarity against the stored images (CBRD's primitive)."""
        return QueryResult.best_of(
            self.query_top(features, 1), len(self._entries), self.verify_top_k
        )
