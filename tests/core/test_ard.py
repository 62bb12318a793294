"""Tests for cross-batch redundancy detection (CBRD / EDR)."""

import pytest

from repro.core.ard import CrossBatchDetector
from repro.core.server import BeesServer


@pytest.fixture()
def seeded_server(orb_features, orb_features_other):
    server = BeesServer()
    server.index.add(orb_features)
    server.index.add(orb_features_other)
    return server


class TestThreshold:
    def test_tracks_edr_policy(self):
        detector = CrossBatchDetector()
        assert detector.threshold_for(1.0) == pytest.approx(0.019)
        assert detector.threshold_for(0.0) == pytest.approx(0.013)


class TestDecide:
    def test_similar_image_redundant(self, seeded_server, orb_features_alt_view):
        decision = CrossBatchDetector().decide(
            orb_features_alt_view, seeded_server, ebat=1.0
        )
        assert decision.redundant
        assert decision.best_match_id == "scene7-v0"
        assert decision.max_similarity > decision.threshold

    def test_unique_image_not_redundant(self, seeded_server, orb, generator):
        unique = orb.extract(generator.view(777, 0, image_id="u"))
        decision = CrossBatchDetector().decide(unique, seeded_server, ebat=1.0)
        assert not decision.redundant

    def test_empty_server_never_redundant(self, orb_features):
        decision = CrossBatchDetector().decide(orb_features, BeesServer(), ebat=1.0)
        assert not decision.redundant
        assert decision.max_similarity == 0.0

    def test_disabled_detector_skips_query(self, seeded_server, orb_features_alt_view):
        detector = CrossBatchDetector(enabled=False)
        served_before = seeded_server.queries_served
        decision = detector.decide(orb_features_alt_view, seeded_server, ebat=1.0)
        assert not decision.redundant
        assert seeded_server.queries_served == served_before

    def test_borderline_similarity_depends_on_ebat(
        self, seeded_server, orb_features, monkeypatch
    ):
        """An image whose max similarity falls between the low- and
        high-battery thresholds flips verdict with Ebat."""
        from repro.core.ard import CrossBatchDetector
        from repro.index.index import QueryResult

        detector = CrossBatchDetector()
        monkeypatch.setattr(
            seeded_server,
            "query_features",
            lambda features: QueryResult(
                best_id="x", best_similarity=0.016, candidates_checked=1
            ),
        )
        low = detector.decide(orb_features, seeded_server, ebat=0.0)  # T = 0.013
        high = detector.decide(orb_features, seeded_server, ebat=1.0)  # T = 0.019
        assert low.redundant
        assert not high.redundant
