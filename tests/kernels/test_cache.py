"""The match-count cache's counters, as the end-to-end benchmark reads them."""

from repro.kernels.cache import get_match_cache


class TestMatchCountCache:
    def test_clear_resets_counters(self):
        cache = get_match_cache()
        cache.clear()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert get_match_cache() is cache
