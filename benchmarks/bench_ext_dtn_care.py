"""Extension — CARE-style content-aware dropping in a DTN.

The paper's related work (Section V) covers the DTN family: PhotoNet
and CARE eliminate redundant images inside a delay-tolerant network
where relay buffers are scarce.  This bench reproduces CARE's core
result on our substrate: under buffer pressure, a drop policy that
evicts from the most-similar pair (content-aware) delivers more
*distinct scenes* to the gateway than content-blind FIFO dropping —
the same "information per transmitted byte" argument BEES makes at the
source.

Protocol: photographers shoot one photo per round (burst duplicates of
a scene come from the *same* node — burst shooting is local), relays
meet epidemically with 3-image buffers, and a gateway drains ~10% of
nodes per round.  Scored over several contact-process seeds.

A second sweep makes the contacts *lossy*
(:class:`~repro.network.ContactLoss`): forwarded copies vanish or
arrive corrupted, and the gateway's replica reconciliation (any intact
epidemic copy repairs the image) decides how much *intact* information
survives as the loss rate climbs.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.reporting import format_table
from repro.datasets.disaster import DisasterDataset
from repro.dtn import CareDropPolicy, CarriedImage, EpidemicSimulation, FifoDropPolicy
from repro.features.orb import OrbExtractor
from repro.imaging.synth import SceneGenerator
from repro.network import ContactLoss

from common import merge_params

N_IMAGES = 30
N_INBATCH = 12  # heavy duplication: buffer pressure must matter
N_NODES = 5
CAPACITY = 3
ROUNDS = 40
GATEWAY_PROBABILITY = 0.1
SEEDS = tuple(range(6))

#: Contact drop rates swept by the lossy-contact comparison; the
#: corruption rate rides along at half the drop rate.
CONTACT_LOSS_LEVELS = (0.0, 0.2, 0.4)

PARAMS = {
    "n_images": N_IMAGES,
    "n_inbatch_similar": N_INBATCH,
    "n_seeds": len(SEEDS),
    "rounds": ROUNDS,
    "contact_loss_levels": list(CONTACT_LOSS_LEVELS),
}
QUICK_PARAMS = {
    "n_images": 16,
    "n_inbatch_similar": 6,
    "n_seeds": 2,
    "rounds": 25,
    "contact_loss_levels": [0.0, 0.4],
}


def run(params: "dict | None" = None) -> dict:
    """Registered bench entry point (``repro bench run``)."""
    p = merge_params(PARAMS, params)
    loss_levels = p.pop("contact_loss_levels")
    data = run_dtn_comparison(**p)
    loss = run_contact_loss_sweep(
        loss_levels=loss_levels,
        n_images=p["n_images"],
        n_inbatch_similar=p["n_inbatch_similar"],
        n_seeds=p["n_seeds"],
        rounds=p["rounds"],
    )
    return {
        "n_scenes": int(data["n_scenes"]),
        "policies": {
            name: [
                {"unique_groups": int(g), "delivered": int(d), "transmissions": int(t)}
                for g, d, t in per_seed
            ]
            for name, per_seed in data["results"].items()
        },
        "contact_loss": {
            str(level): cell for level, cell in loss.items()
        },
    }


def _node_queues(n_images: int = N_IMAGES, n_inbatch_similar: int = N_INBATCH):
    """Per-node photo queues with bursts co-located at one node."""
    data = DisasterDataset(generator=SceneGenerator(height=72, width=96))
    extractor = OrbExtractor()
    batch = data.make_batch(
        n_images=n_images, n_inbatch_similar=n_inbatch_similar, seed=9
    )
    by_scene = defaultdict(list)
    for image in batch:
        by_scene[image.group_id].append(
            CarriedImage(image=image, features=extractor.extract(image))
        )
    queues = defaultdict(list)
    scenes = sorted(by_scene)
    for index, scene in enumerate(scenes):
        queues[index % N_NODES].extend(by_scene[scene])
    return dict(queues), len(scenes)


def run_dtn_comparison(
    n_images: int = N_IMAGES,
    n_inbatch_similar: int = N_INBATCH,
    n_seeds: int = len(SEEDS),
    rounds: int = ROUNDS,
):
    queues, n_scenes = _node_queues(n_images, n_inbatch_similar)
    results = {}
    for policy_factory in (FifoDropPolicy, CareDropPolicy):
        # One policy for every seed: the images (and so CARE's pair
        # scores) are the same across seeds, only the contacts differ.
        policy = policy_factory()
        per_seed = []
        for seed in range(n_seeds):
            sim = EpidemicSimulation(
                n_nodes=N_NODES,
                buffer_capacity=CAPACITY,
                policy_factory=lambda: policy,
                contact_bandwidth=2,
                contacts_per_round=3,
                gateway_probability=GATEWAY_PROBABILITY,
                seed=seed,
            )
            pending = {node: list(queue) for node, queue in queues.items()}
            for _ in range(rounds):
                for node, queue in pending.items():
                    if queue:
                        sim.inject(node, queue.pop(0))
                sim.step()
            report = sim.run(0)
            per_seed.append(
                (report.n_unique_groups, report.n_delivered, report.transmissions)
            )
        results[policy.name] = per_seed
    return {"n_scenes": n_scenes, "results": results}


def run_contact_loss_sweep(
    loss_levels=CONTACT_LOSS_LEVELS,
    n_images: int = N_IMAGES,
    n_inbatch_similar: int = N_INBATCH,
    n_seeds: int = len(SEEDS),
    rounds: int = ROUNDS,
):
    """CARE delivery vs contact loss, with gateway reconciliation.

    Per loss level (drop rate ``level``, corrupt rate ``level / 2``),
    averaged over contact seeds: how many *intact* distinct scenes
    reach the gateway, how many corrupt copies a clean epidemic replica
    repaired, and how many forwards the contacts ate.
    """
    queues, n_scenes = _node_queues(n_images, n_inbatch_similar)
    results = {}
    for level in loss_levels:
        policy = CareDropPolicy()
        per_seed = []
        for seed in range(n_seeds):
            sim = EpidemicSimulation(
                n_nodes=N_NODES,
                buffer_capacity=CAPACITY,
                policy_factory=lambda: policy,
                contact_bandwidth=2,
                contacts_per_round=3,
                gateway_probability=GATEWAY_PROBABILITY,
                seed=seed,
                loss=(
                    ContactLoss(drop_rate=level, corrupt_rate=level / 2)
                    if level > 0
                    else None
                ),
            )
            pending = {node: list(queue) for node, queue in queues.items()}
            for _ in range(rounds):
                for node, queue in pending.items():
                    if queue:
                        sim.inject(node, queue.pop(0))
                sim.step()
            report = sim.run(0)
            per_seed.append(
                {
                    "intact_groups": report.n_intact_groups,
                    "unique_groups": report.n_unique_groups,
                    "repaired": report.repaired,
                    "corrupt": len(report.corrupt_ids),
                    "dropped": sim.dropped_transmissions,
                }
            )
        results[level] = {
            "n_scenes": n_scenes,
            "mean_intact_groups": float(
                np.mean([s["intact_groups"] for s in per_seed])
            ),
            "mean_unique_groups": float(
                np.mean([s["unique_groups"] for s in per_seed])
            ),
            "total_repaired": int(sum(s["repaired"] for s in per_seed)),
            "total_corrupt": int(sum(s["corrupt"] for s in per_seed)),
            "total_dropped": int(sum(s["dropped"] for s in per_seed)),
        }
    return results


def test_ext_dtn_care(benchmark, emit):
    data = benchmark.pedantic(run_dtn_comparison, rounds=1, iterations=1)
    rows = []
    means = {}
    for name, per_seed in data["results"].items():
        groups = float(np.mean([g for g, _, _ in per_seed]))
        delivered = float(np.mean([d for _, d, _ in per_seed]))
        transmissions = float(np.mean([t for _, _, t in per_seed]))
        means[name] = groups
        rows.append(
            [
                name,
                f"{groups:.1f} / {data['n_scenes']}",
                f"{delivered:.1f}",
                f"{transmissions:.0f}",
            ]
        )
    emit(
        "Extension — DTN delivery: CARE vs. FIFO drop "
        f"(buffers of {CAPACITY}, {N_IMAGES} images / {data['n_scenes']} scenes)",
        format_table(
            ["drop policy", "distinct scenes delivered", "images delivered", "transmissions"],
            rows,
        ),
    )
    # The CARE result: clearly more distinct information end-to-end.
    assert means["care"] > 1.05 * means["fifo"]


def test_ext_dtn_care_loss(benchmark, emit):
    results = benchmark.pedantic(run_contact_loss_sweep, rounds=1, iterations=1)
    rows = [
        [
            f"{level:.2f}",
            f"{cell['mean_intact_groups']:.1f} / {cell['n_scenes']}",
            f"{cell['mean_unique_groups']:.1f}",
            str(cell["total_repaired"]),
            str(cell["total_corrupt"]),
            str(cell["total_dropped"]),
        ]
        for level, cell in results.items()
    ]
    emit(
        "Extension — CARE delivery over lossy contacts "
        f"(corrupt rate = drop rate / 2, {len(SEEDS)} seeds)",
        format_table(
            [
                "drop rate",
                "intact scenes",
                "delivered scenes",
                "repaired",
                "corrupt",
                "dropped forwards",
            ],
            rows,
        ),
    )
    ordered = [results[level] for level in CONTACT_LOSS_LEVELS]
    clean, worst = ordered[0], ordered[-1]
    # Zero loss: nothing dropped, nothing corrupt, intact == delivered.
    assert clean["total_dropped"] == 0
    assert clean["total_corrupt"] == 0
    assert clean["total_repaired"] == 0
    assert clean["mean_intact_groups"] == clean["mean_unique_groups"]
    # Loss eats forwards, and intact coverage degrades with it.
    assert worst["total_dropped"] > 0
    assert worst["mean_intact_groups"] < clean["mean_intact_groups"]
    # Epidemic replication earns its bytes: at least some corrupt copies
    # are repaired by an intact duplicate across the sweep.
    assert sum(cell["total_repaired"] for cell in ordered) > 0
