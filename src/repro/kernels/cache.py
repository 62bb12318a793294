"""The match-count cache's counters — no longer on any BEES path.

Every Equation-2 pair score used to pass through a process-wide LRU of
descriptor match counts.  Measured, it reused nothing in fleet runs (0
hits in 960 lookups for an 8-device, 3-round fleet, and a 0.0 hit rate
on every end-to-end workload) while each lookup paid two blake2b
digests and a lock, so the similarity layer scores every pair directly.
The one caller that really re-scores pairs, the CARE drop policy, keeps
its own per-simulation memo (:class:`repro.dtn.node.CareDropPolicy`).

What is left is the ``get_match_cache().clear()`` / ``.stats()`` pair
the end-to-end benchmark (``benchmarks/e2e/run.py``) calls between
passes to report ``kernels.cache.hit_rate``: nothing fills the cache,
so every count reads 0.  The module goes once that benchmark stops
importing it.
"""

from __future__ import annotations


class MatchCountCache:
    """A cache nothing fills: its size and hit/miss counts stay 0."""

    def clear(self) -> None:
        """Nothing is stored, so there is nothing to drop."""

    def stats(self) -> "dict[str, int]":
        """Size and hit/miss counters, all 0."""
        return {"entries": 0, "hits": 0, "misses": 0}


_GLOBAL_CACHE = MatchCountCache()


def get_match_cache() -> MatchCountCache:
    """The process-wide match-count cache."""
    return _GLOBAL_CACHE
