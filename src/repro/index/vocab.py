"""A vocabulary-tree (bag-of-visual-words) index alternative.

The Kentucky dataset's own paper (Nister & Stewenius, CVPR 2006 — the
paper's reference [20]) retrieves images with a hierarchical visual
vocabulary: descriptors are quantised to "visual words", an image
becomes a TF-IDF-weighted word histogram, and retrieval is histogram
scoring against inverted lists.

BEES itself uses direct descriptor matching (Equation 2); this module
provides the vocabulary-tree approach as a drop-in alternative index so
the two retrieval strategies can be compared (`tests/index/test_vocab.py`
and the ablation discussion in DESIGN.md).  It works on ORB's binary
descriptors with Hamming-space k-medoids at each tree level.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..errors import IndexError_
from ..features.base import FeatureSet
from ..kernels.hamming import hamming_distance_matrix


def _majority_centroid(descriptors: np.ndarray) -> np.ndarray:
    """The bitwise-majority 'mean' of packed binary descriptors."""
    bits = np.unpackbits(descriptors, axis=1)
    majority = bits.mean(axis=0) >= 0.5
    return np.packbits(majority[None, :], axis=1)[0]


def _kmeans_binary(
    descriptors: np.ndarray, k: int, rng: np.random.Generator, iterations: int = 6
) -> "tuple[np.ndarray, np.ndarray]":
    """Hamming k-means over packed descriptors.

    Returns ``(centroids, assignments)``.  Empty clusters are reseeded
    from the farthest points, the standard fix.
    """
    n = len(descriptors)
    k = min(k, n)
    choice = rng.choice(n, size=k, replace=False)
    centroids = descriptors[choice].copy()
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = hamming_distance_matrix(descriptors, centroids)
        assignments = distances.argmin(axis=1)
        for cluster in range(k):
            members = descriptors[assignments == cluster]
            if len(members):
                centroids[cluster] = _majority_centroid(members)
            else:
                farthest = distances.min(axis=1).argmax()
                centroids[cluster] = descriptors[farthest]
    return centroids, assignments


@dataclass
class VocabularyTree:
    """A hierarchical visual vocabulary over binary descriptors."""

    branching: int = 8
    depth: int = 3
    seed: int = 5
    _centroids: list = field(default_factory=list, init=False, repr=False)
    _children: list = field(default_factory=list, init=False, repr=False)
    _is_trained: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.branching < 2:
            raise IndexError_(f"branching must be >= 2, got {self.branching}")
        if self.depth < 1:
            raise IndexError_(f"depth must be >= 1, got {self.depth}")

    @property
    def n_words(self) -> int:
        """Leaf count — the vocabulary size."""
        return self.branching**self.depth

    # -- training -------------------------------------------------------------

    def train(self, descriptors: np.ndarray) -> None:
        """Build the tree from a training descriptor sample."""
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if descriptors.ndim != 2 or len(descriptors) < self.branching:
            raise IndexError_(
                f"need at least {self.branching} training descriptors, "
                f"got shape {descriptors.shape}"
            )
        rng = np.random.default_rng(self.seed)
        # Flat layout: node 0 is the root; each split appends children.
        self._centroids = [None]
        self._children = [[]]
        self._split(0, descriptors, level=0, rng=rng)
        self._is_trained = True

    def _split(self, node: int, descriptors: np.ndarray, level: int, rng) -> None:
        if level == self.depth or len(descriptors) < self.branching:
            return
        centroids, assignments = _kmeans_binary(descriptors, self.branching, rng)
        for cluster in range(len(centroids)):
            child = len(self._centroids)
            self._centroids.append(centroids[cluster])
            self._children[node].append(child)
            self._children.append([])
            members = descriptors[assignments == cluster]
            if len(members):
                self._split(child, members, level + 1, rng)

    # -- quantisation -----------------------------------------------------------

    def words(self, descriptors: np.ndarray) -> np.ndarray:
        """Quantise descriptors to leaf-node ids ("visual words")."""
        if not self._is_trained:
            raise IndexError_("vocabulary tree is not trained")
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if len(descriptors) == 0:
            return np.zeros(0, dtype=np.int64)
        words = np.zeros(len(descriptors), dtype=np.int64)
        for index, descriptor in enumerate(descriptors):
            node = 0
            while self._children[node]:
                children = self._children[node]
                child_centroids = np.stack([self._centroids[c] for c in children])
                distances = hamming_distance_matrix(descriptor[None, :], child_centroids)
                node = children[int(distances.argmin())]
            words[index] = node
        return words


@dataclass
class BagOfWordsIndex:
    """TF-IDF inverted-file retrieval over a vocabulary tree."""

    tree: VocabularyTree = field(default_factory=VocabularyTree)
    _inverted: dict = field(default_factory=lambda: defaultdict(list), init=False, repr=False)
    _vectors: dict = field(default_factory=dict, init=False, repr=False)
    _document_frequency: dict = field(default_factory=lambda: defaultdict(int), init=False, repr=False)

    def __len__(self) -> int:
        return len(self._vectors)

    def _tf(self, words: np.ndarray) -> dict:
        counts: dict[int, float] = defaultdict(float)
        for word in words.tolist():
            counts[word] += 1.0
        total = max(1.0, float(len(words)))
        return {word: count / total for word, count in counts.items()}

    def add(self, features: FeatureSet) -> None:
        """Index one image's quantised descriptors."""
        if not features.image_id:
            raise IndexError_("features must carry an image_id")
        if features.image_id in self._vectors:
            raise IndexError_(f"image {features.image_id!r} already indexed")
        words = self.tree.words(features.descriptors)
        vector = self._tf(words)
        self._vectors[features.image_id] = vector
        for word in vector:
            self._inverted[word].append(features.image_id)
            self._document_frequency[word] += 1

    def _idf(self, word: int) -> float:
        n_docs = max(1, len(self._vectors))
        df = self._document_frequency.get(word, 0)
        return float(np.log((n_docs + 1) / (df + 1)) + 1.0)

    def query_top(self, features: FeatureSet, k: int) -> "list[tuple[str, float]]":
        """Top-*k* images by TF-IDF cosine score via the inverted file."""
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        if not self._vectors or len(features) == 0:
            return []
        query = self._tf(self.tree.words(features.descriptors))
        scores: dict[str, float] = defaultdict(float)
        query_norm = 0.0
        for word, weight in query.items():
            idf = self._idf(word)
            weighted = weight * idf
            query_norm += weighted * weighted
            for image_id in set(self._inverted.get(word, [])):
                scores[image_id] += weighted * self._vectors[image_id].get(word, 0.0) * idf
        query_norm = np.sqrt(max(query_norm, 1e-12))
        ranked = []
        for image_id, dot in scores.items():
            doc = self._vectors[image_id]
            doc_norm = np.sqrt(
                sum((w * self._idf(word)) ** 2 for word, w in doc.items())
            )
            ranked.append((image_id, dot / (query_norm * max(doc_norm, 1e-12))))
        ranked.sort(key=lambda pair: pair[1], reverse=True)
        return ranked[:k]
