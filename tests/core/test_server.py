"""Tests for the BEES cloud server."""

import pytest

from repro.core.server import BeesServer
from repro.errors import SimulationError


class TestServer:
    def test_receive_indexes_and_stores(self, scene_image, orb_features):
        server = BeesServer()
        server.receive_image(scene_image, orb_features)
        assert len(server) == 1
        assert scene_image.image_id in server.store
        assert scene_image.image_id in server.index

    def test_receive_rejects_id_mismatch(self, scene_image, orb_features_other):
        server = BeesServer()
        with pytest.raises(SimulationError):
            server.receive_image(scene_image, orb_features_other)

    def test_received_bytes_recorded(self, scene_image, orb_features):
        server = BeesServer()
        server.receive_image(scene_image, orb_features, received_bytes=1234)
        assert server.store.get(scene_image.image_id).received_bytes == 1234

    def test_seed_image_zero_bytes(self, scene_image, orb_features):
        server = BeesServer()
        server.seed_image(scene_image, orb_features)
        assert server.store.get(scene_image.image_id).received_bytes == 0

    def test_query_counts(self, scene_image, orb_features):
        server = BeesServer()
        server.receive_image(scene_image, orb_features)
        assert server.queries_served == 0
        server.query_features(orb_features)
        assert server.queries_served == 1

    def test_query_finds_received_image(
        self, scene_image, orb_features, orb_features_alt_view
    ):
        server = BeesServer()
        server.receive_image(scene_image, orb_features)
        result = server.query_features(orb_features_alt_view)
        assert result.best_id == scene_image.image_id

    def test_query_top_passthrough(self, scene_image, orb_features):
        server = BeesServer()
        server.receive_image(scene_image, orb_features)
        top = server.query_top(orb_features, 2)
        assert top[0][0] == scene_image.image_id
