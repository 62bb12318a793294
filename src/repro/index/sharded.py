"""``ShardedFeatureIndex``: a compatibility name for :class:`FeatureIndex`.

The server index is one posting list.  Splitting it into shards could
not win: every fleet write commits at the round barrier and reads take
no lock, while each query paid one vote pass per shard plus a merge.
This name stays only because ``benchmarks/e2e`` builds and probes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IndexError_
from .index import FeatureIndex


@dataclass
class ShardedFeatureIndex(FeatureIndex):
    """:class:`FeatureIndex` under its old sharded name; ``n_shards`` is
    validated and otherwise ignored."""

    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise IndexError_(f"n_shards must be >= 1, got {self.n_shards}")
        super().__post_init__()

    # Own class attributes, so that probes which patch ``vars(cls)``
    # (benchmarks/e2e/ledger.py) find them here.
    add = FeatureIndex.add
    query = FeatureIndex.query
