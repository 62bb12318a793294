"""Tests for DTN nodes and drop policies."""

from dataclasses import replace

import pytest

import repro.dtn.node as dtn_node
from repro.dtn.node import CareDropPolicy, CarriedImage, DtnNode, FifoDropPolicy
from repro.errors import SimulationError
from repro.features.orb import OrbExtractor
from repro.imaging.synth import SceneGenerator


@pytest.fixture(scope="module")
def carried():
    """Carried images: scenes 0..3 singly, plus a 2nd view of scene 0."""
    generator = SceneGenerator()
    extractor = OrbExtractor()
    out = {}
    for scene in range(4):
        image = generator.view(scene + 300, 0, image_id=f"dtn{scene}", group_id=f"g{scene}")
        out[f"dtn{scene}"] = CarriedImage(image=image, features=extractor.extract(image))
    dup = generator.view(300, 1, image_id="dtn0b", group_id="g0")
    out["dtn0b"] = CarriedImage(image=dup, features=extractor.extract(dup))
    return out


class TestDtnNode:
    def test_accepts_until_full(self, carried):
        node = DtnNode(node_id="n", capacity=2)
        assert node.offer(carried["dtn0"])
        assert node.offer(carried["dtn1"])
        assert len(node.buffer) == 2

    def test_duplicate_id_ignored(self, carried):
        node = DtnNode(node_id="n", capacity=2)
        node.offer(carried["dtn0"])
        assert not node.offer(carried["dtn0"])
        assert len(node.buffer) == 1

    def test_carries(self, carried):
        node = DtnNode(node_id="n", capacity=2)
        node.offer(carried["dtn0"])
        assert node.carries("dtn0")
        assert not node.carries("dtn1")

    def test_take_all_drains(self, carried):
        node = DtnNode(node_id="n", capacity=3)
        node.offer(carried["dtn0"])
        node.offer(carried["dtn1"])
        drained = node.take_all()
        assert len(drained) == 2
        assert node.buffer == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(SimulationError):
            DtnNode(node_id="n", capacity=0)


class TestFifoPolicy:
    def test_evicts_oldest(self, carried):
        node = DtnNode(node_id="n", capacity=2, policy=FifoDropPolicy())
        node.offer(carried["dtn0"])
        node.offer(carried["dtn1"])
        assert node.offer(carried["dtn2"])
        assert not node.carries("dtn0")
        assert node.carries("dtn2")
        assert node.drops == 1


class TestCarePolicy:
    def test_rejects_redundant_candidate(self, carried):
        """A second view of a carried scene adds no information — CARE
        refuses it instead of evicting unique content."""
        node = DtnNode(node_id="n", capacity=2, policy=CareDropPolicy())
        node.offer(carried["dtn0"])
        node.offer(carried["dtn1"])
        assert not node.offer(carried["dtn0b"])  # duplicates dtn0
        assert node.carries("dtn0") and node.carries("dtn1")
        assert node.rejections == 1

    def test_evicts_buffer_redundancy_for_fresh_content(self, carried):
        """With a redundant pair already in the buffer, new unique
        content displaces one of the pair."""
        node = DtnNode(node_id="n", capacity=2, policy=CareDropPolicy())
        node.offer(carried["dtn0"])
        node.offer(carried["dtn0b"])  # buffer: two views of scene 0
        assert node.offer(carried["dtn1"])
        assert node.carries("dtn1")
        # Exactly one view of scene 0 survives.
        views = [entry for entry in node.buffer if entry.image.group_id == "g0"]
        assert len(views) == 1

    def test_falls_back_to_fifo_without_redundancy(self, carried):
        node = DtnNode(node_id="n", capacity=2, policy=CareDropPolicy())
        node.offer(carried["dtn0"])
        node.offer(carried["dtn1"])
        assert node.offer(carried["dtn2"])  # all distinct: FIFO victim
        assert not node.carries("dtn0")

    def test_rejects_negative_floor(self):
        with pytest.raises(SimulationError):
            CareDropPolicy(similarity_floor=-0.1)

    def test_new_feature_set_under_same_image_id_is_rescored(
        self, carried, monkeypatch
    ):
        scored = []
        real = dtn_node.jaccard_similarity

        def counting(a, b):
            scored.append((a.image_id, b.image_id))
            return real(a, b)

        monkeypatch.setattr(dtn_node, "jaccard_similarity", counting)
        policy = CareDropPolicy()
        buffer = [carried["dtn1"], carried["dtn2"]]
        assert policy.select_victim(buffer, carried["dtn3"]) == 0  # FIFO
        assert len(scored) == 3
        # dtn1 again, but carrying other features: dtn3's content under
        # dtn1's id.  A memo keyed on ids would serve the stale score.
        relabelled = CarriedImage(
            image=carried["dtn1"].image,
            features=replace(carried["dtn3"].features, image_id="dtn1"),
        )
        buffer = [relabelled, carried["dtn2"]]
        assert policy.select_victim(buffer, carried["dtn3"]) is None
        # Both pairs with the new feature set are scored; (dtn2, dtn3)
        # is remembered.
        assert len(scored) == 5
