"""Server-side index substrate: LSH descriptor index + image store."""

from .dedup import DedupStore, content_defined_chunks, image_payload
from .index import FeatureIndex, QueryResult, rank_votes, verify_candidates
from .lsh import HammingLSH, float_sketch_planes, sketch_float_descriptors
from .sharded import ShardedFeatureIndex, shard_of
from .store import ImageStore, StoredImage
from .vocab import BagOfWordsIndex, VocabularyTree

__all__ = [
    "BagOfWordsIndex",
    "DedupStore",
    "FeatureIndex",
    "HammingLSH",
    "ImageStore",
    "QueryResult",
    "ShardedFeatureIndex",
    "StoredImage",
    "VocabularyTree",
    "content_defined_chunks",
    "image_payload",
    "rank_votes",
    "shard_of",
    "float_sketch_planes",
    "sketch_float_descriptors",
    "verify_candidates",
]
