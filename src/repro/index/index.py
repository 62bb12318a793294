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
ref/arrival order — so two indexes holding the same images always
answer identically, no matter the order the images arrived in.  The
fleet differential tests (:mod:`repro.fleet`) rely on it to not flake.

One posting list serves every query: the LSH vote totals come back as
one array indexed by ref, and the shortlist is cut from that array with
``np.partition`` (:func:`shortlist_refs`), so only the refs that can
make the shortlist are ever named by their image id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import IndexError_
from ..features.base import FeatureSet
from ..features.matching import resolve_threshold
from ..features.similarity import _check_kind, _pair_jaccard, prepare_set
from .lsh import (
    FLOAT_SKETCH_BITS,
    HammingLSH,
    float_sketch_planes,
    sketch_float_descriptors,
)


def shortlist_refs(
    totals: np.ndarray, limit: int, id_of: "Callable[[int], str]"
) -> "list[int]":
    """The refs of the *limit* best vote totals, by ``(votes desc, id asc)``.

    *totals* is :meth:`~repro.kernels.voting.BucketStore.votes`' array
    (entry *r* is ref *r*'s votes; zero means unvoted, never listed).
    ``np.partition`` finds the *limit*-th largest total; only the refs
    at or above it are named with *id_of* and sorted, so the Python
    work grows with the ties at the cut, not with the index.  The
    stable image id breaks ties, so the ranking never depends on ref
    (arrival) order.
    """
    if totals.size > limit:
        cut = totals.size - limit
        refs = np.flatnonzero(totals >= max(np.partition(totals, cut)[cut], 1.0))
    else:
        refs = np.flatnonzero(totals)
    ranked = sorted(
        zip(refs.tolist(), totals[refs].tolist()),
        key=lambda pair: (-pair[1], id_of(pair[0])),
    )
    return [ref for ref, _ in ranked[:limit]]


def verify_candidates(
    query: FeatureSet, candidates: "list[FeatureSet]", k: int
) -> "list[tuple[str, float]]":
    """Exact Equation-2 scores for *candidates*, best-*k* first.

    Equal to :func:`~repro.features.similarity.jaccard_similarity` on
    every candidate; the query is prepared and its ceiling resolved once.
    Sorted by ``(similarity desc, image_id asc)`` — the same
    deterministic tie-break as :func:`shortlist_refs`.
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
        """Index the features of one uploaded image.

        One writer at a time: no program path adds from two threads
        (the fleet commits every upload at the round barrier), so
        concurrent ``add`` calls are not supported.  Reads
        stay lock-free against that one writer: the bucket store
        publishes each insert whole.
        """
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

    def shortlist(self, features: FeatureSet, limit: int) -> "list[FeatureSet]":
        """The *limit* best-voted stored feature sets for a query.

        Ranked by ``(votes desc, image_id asc)`` (:func:`shortlist_refs`);
        images sharing no LSH bucket with the query are never listed.
        """
        if not self._entries or len(features) == 0:
            return []
        entries = self._entries
        totals = self._lsh.votes(self._packed(features))
        refs = shortlist_refs(totals, limit, lambda ref: entries[ref].image_id)
        return [entries[ref] for ref in refs]

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
        the ``max(k, verify_top_k)`` best-voted candidates are exactly
        verified, so images sharing no descriptor buckets with the query
        never appear (their similarity would be ~0 anyway).
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        candidates = self.shortlist(features, max(k, self.verify_top_k))
        return verify_candidates(features, candidates, k)

    def query(self, features: FeatureSet) -> QueryResult:
        """Maximum similarity against the stored images (CBRD's primitive).

        ``candidates_checked`` is the length of the shortlist that was
        verified: at most ``verify_top_k``, fewer when fewer stored
        images got any vote.
        """
        candidates = self.shortlist(features, self.verify_top_k)
        top = verify_candidates(features, candidates, 1)
        if not top:
            return NO_MATCH
        best_id, best_similarity = top[0]
        return QueryResult(
            best_id=best_id,
            best_similarity=best_similarity,
            candidates_checked=len(candidates),
        )
