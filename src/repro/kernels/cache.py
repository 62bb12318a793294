"""A bounded LRU of descriptor match counts — no longer on any BEES path.

Every Equation-2 pair score used to pass through a process-wide
instance of this cache.  Measured, it reused nothing in fleet runs
(0 hits in 960 lookups for an 8-device, 3-round fleet in either mode,
and a 0.0 hit rate on every end-to-end workload) while each lookup paid
two blake2b digests and a lock, so the similarity layer now scores
every pair directly.  The one caller that really re-scores pairs, the
CARE drop policy, keeps its own per-simulation memo
(:class:`repro.dtn.node.CareDropPolicy`).

The module remains only because the end-to-end benchmark
(``benchmarks/e2e/run.py``) imports :func:`get_match_cache` to clear it
between passes and to report ``kernels.cache.hit_rate``; nothing under
``src/`` uses it.  It goes once that benchmark stops importing it.

Keys are built from content fingerprints (blake2b over the descriptor
bytes + shape + dtype) plus the image ids, canonically ordered, so a
hit is byte-identical to recomputation by construction.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..errors import ConfigurationError

#: Default entry budget.  A key is ~200 bytes and a value is one int,
#: so the full cache stays well under a megabyte.
DEFAULT_CACHE_ENTRIES = 8192

#: One cache key: (kind, threshold, (id_a, digest_a), (id_b, digest_b)).
MatchKey = "tuple[str, float, tuple[str, bytes], tuple[str, bytes]]"


def descriptor_fingerprint(descriptors: np.ndarray) -> bytes:
    """A content digest of one descriptor matrix (bytes + shape + dtype)."""
    descriptors = np.ascontiguousarray(descriptors)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(descriptors.dtype).encode())
    digest.update(np.asarray(descriptors.shape, dtype=np.int64).tobytes())
    digest.update(descriptors.tobytes())
    return digest.digest()


def match_key(
    kind: str,
    threshold: float,
    id_a: str,
    descriptors_a: np.ndarray,
    id_b: str,
    descriptors_b: np.ndarray,
) -> "MatchKey":
    """The canonical (symmetric) cache key for one scored pair."""
    side_a = (id_a, descriptor_fingerprint(descriptors_a))
    side_b = (id_b, descriptor_fingerprint(descriptors_b))
    first, second = sorted((side_a, side_b))
    return (kind, float(threshold), first, second)


class MatchCountCache:
    """A thread-safe LRU of ``match_key -> match count``."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, int]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: object) -> "int | None":
        """The cached count, refreshed to most-recently-used, or None."""
        with self._lock:
            count = self._entries.get(key)
            if count is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return count

    def put(self, key: object, count: int) -> None:
        """Store one count, evicting the least-recently-used past budget."""
        with self._lock:
            self._entries[key] = count
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> "dict[str, int]":
        """A snapshot of size and hit/miss counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


#: The process-wide instance the end-to-end benchmark reads.
_GLOBAL_CACHE = MatchCountCache()


def get_match_cache() -> MatchCountCache:
    """The process-wide match-count cache."""
    return _GLOBAL_CACHE


def set_match_cache(cache: MatchCountCache) -> MatchCountCache:
    """Swap the process-wide cache (tests); returns the previous one."""
    global _GLOBAL_CACHE
    previous = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return previous
