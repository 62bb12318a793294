"""Tests for the epidemic DTN simulation."""

from collections import Counter

import pytest

import repro.dtn.node as dtn_node
from repro.core.config import EDR_THRESHOLD_MAX
from repro.dtn.node import CareDropPolicy, CarriedImage, DropPolicy, FifoDropPolicy
from repro.dtn.routing import EpidemicSimulation
from repro.errors import SimulationError
from repro.features.orb import OrbExtractor
from repro.features.similarity import jaccard_similarity
from repro.imaging.synth import SceneGenerator
from repro.obs import disable_journal, journal_to, read_journal


@pytest.fixture(scope="module")
def workload():
    """12 carried images over 8 scenes (4 scenes duplicated)."""
    generator = SceneGenerator(height=72, width=96)
    extractor = OrbExtractor()
    items = []
    for scene in range(8):
        views = 2 if scene < 4 else 1
        for view in range(views):
            image = generator.view(
                scene + 400, view, image_id=f"w{scene}-{view}", group_id=f"s{scene}"
            )
            items.append(CarriedImage(image=image, features=extractor.extract(image)))
    return items


def _sim(policy_factory, seed=3, capacity=3):
    return EpidemicSimulation(
        n_nodes=4,
        buffer_capacity=capacity,
        policy_factory=policy_factory,
        contact_bandwidth=2,
        contacts_per_round=2,
        gateway_probability=0.2,
        seed=seed,
    )


class TestValidation:
    def test_rejects_single_node(self):
        with pytest.raises(SimulationError):
            EpidemicSimulation(n_nodes=1, buffer_capacity=2)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(SimulationError):
            EpidemicSimulation(n_nodes=3, buffer_capacity=2, contact_bandwidth=0)

    def test_rejects_bad_gateway_probability(self):
        with pytest.raises(SimulationError):
            EpidemicSimulation(n_nodes=3, buffer_capacity=2, gateway_probability=1.5)

    def test_inject_bounds(self, workload):
        sim = _sim(FifoDropPolicy)
        with pytest.raises(SimulationError):
            sim.inject(99, workload[0])

    def test_negative_rounds_rejected(self):
        with pytest.raises(SimulationError):
            _sim(FifoDropPolicy).run(-1)


class TestDynamics:
    def test_deterministic(self, workload):
        outcomes = []
        for _ in range(2):
            sim = _sim(CareDropPolicy, seed=5)
            for index, item in enumerate(workload):
                sim.inject(index % sim.n_nodes, item)
            outcomes.append(sim.run(20).delivered_ids)
        assert outcomes[0] == outcomes[1]

    def test_images_eventually_delivered(self, workload):
        sim = _sim(FifoDropPolicy, capacity=12)
        for index, item in enumerate(workload):
            sim.inject(index % sim.n_nodes, item)
        report = sim.run(40)
        assert report.n_delivered > 0
        assert report.transmissions > 0

    def test_delivery_ids_unique(self, workload):
        sim = _sim(FifoDropPolicy, capacity=12)
        for index, item in enumerate(workload):
            sim.inject(index % sim.n_nodes, item)
        report = sim.run(40)
        assert len(report.delivered_ids) == len(set(report.delivered_ids))

    def test_unique_groups_bounded(self, workload):
        sim = _sim(CareDropPolicy, capacity=12)
        for index, item in enumerate(workload):
            sim.inject(index % sim.n_nodes, item)
        report = sim.run(40)
        assert report.n_unique_groups <= 8


class ReferenceCareDropPolicy(DropPolicy):
    """CARE scoring every pair of every overflow afresh."""

    name = "care"

    def select_victim(self, buffer, candidate):
        best_pair = None
        best_similarity = EDR_THRESHOLD_MAX
        entries = list(buffer) + [candidate]
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                similarity = jaccard_similarity(
                    entries[i].features, entries[j].features
                )
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_pair = (i, j)
        if best_pair is None:
            return 0
        return None if best_pair[1] == len(entries) - 1 else best_pair[1]


def _journaled_run(policy_factory, workload, path, seed):
    sim = _sim(policy_factory, seed=seed, capacity=2)
    try:
        with journal_to(path):
            for index, item in enumerate(workload):
                sim.inject(index % sim.n_nodes, item)
            report = sim.run(25)
    finally:
        disable_journal()
    drops = [record.data for record in read_journal(path).events("dtn.drop")]
    return report, drops


class TestCareMemo:
    @pytest.mark.parametrize("seed", (0, 5))
    def test_same_run_as_scoring_every_pair_afresh(self, workload, tmp_path, seed):
        report, drops = _journaled_run(
            CareDropPolicy, workload, tmp_path / "memo.jsonl", seed
        )
        reference, reference_drops = _journaled_run(
            ReferenceCareDropPolicy, workload, tmp_path / "ref.jsonl", seed
        )
        assert report == reference
        assert drops == reference_drops
        assert {"evicted", "rejected"} <= {drop["kind"] for drop in drops}

    def test_nodes_share_one_policy(self):
        sim = _sim(CareDropPolicy)
        assert len({id(node.policy) for node in sim.nodes}) == 1
        assert isinstance(EpidemicSimulation(2, 1).nodes[0].policy, CareDropPolicy)

    def test_each_distinct_pair_is_scored_at_most_once(self, workload, monkeypatch):
        scored = Counter()
        real = dtn_node.jaccard_similarity

        def counting(a, b):
            scored[frozenset((id(a), id(b)))] += 1
            return real(a, b)

        monkeypatch.setattr(dtn_node, "jaccard_similarity", counting)
        sim = _sim(CareDropPolicy, seed=5, capacity=2)
        for index, item in enumerate(workload):
            sim.inject(index % sim.n_nodes, item)
        report = sim.run(25)
        assert report.drops + report.rejections > 0
        assert scored and max(scored.values()) == 1


class TestCareVsFifo:
    def test_care_delivers_more_distinct_scenes_under_pressure(self, workload):
        """The CARE result: with tight buffers, content-aware dropping
        preserves more *distinct* information end to end."""
        def deliver(policy_factory):
            groups = set()
            for seed in range(4):
                sim = _sim(policy_factory, seed=seed, capacity=2)
                for index, item in enumerate(workload):
                    sim.inject(index % sim.n_nodes, item)
                report = sim.run(25)
                groups.add((seed, report.n_unique_groups))
            return sum(count for _, count in groups)

        assert deliver(CareDropPolicy) >= deliver(FifoDropPolicy)
