"""Epidemic routing over a seeded contact process.

A minimal DTN: mobile relay nodes meet pairwise at random (the contact
process), exchange a bounded number of images per contact (contact
bandwidth), and occasionally meet the *gateway*, which drains whatever
they carry into the server side.  Combined with the buffer policies of
:mod:`repro.dtn.node` this reproduces the environment PhotoNet and CARE
were designed for, and lets the CARE-vs-FIFO information-delivery
comparison be measured (``benchmarks/bench_ext_dtn_care.py``).

Contacts may be *lossy* (:class:`repro.network.lossy.ContactLoss`): a
forwarded copy can vanish mid-contact or arrive bit-damaged, which
clears its :attr:`~repro.dtn.node.CarriedImage.intact` flag.  Epidemic
spread makes every image a natural k-replica scheme, so the gateway
reconciles per image id — an image is delivered intact if *any* of its
copies arrived intact — mirroring the uplink's replica-voting recovery
(:mod:`repro.network.transfer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import SimulationError
from ..network.lossy import ContactLoss
from ..obs.journal import get_journal
from ..obs.runtime import get_obs
from .node import CareDropPolicy, CarriedImage, DropPolicy, DtnNode


@dataclass(frozen=True)
class DeliveryReport:
    """What reached the gateway by the end of the run."""

    delivered_ids: tuple
    delivered_groups: tuple
    transmissions: int
    drops: int
    rejections: int
    corrupt_ids: tuple = ()
    repaired: int = 0

    @property
    def n_delivered(self) -> int:
        return len(self.delivered_ids)

    @property
    def n_unique_groups(self) -> int:
        """Distinct scenes delivered — the information metric."""
        return len(set(self.delivered_groups))

    @property
    def n_intact(self) -> int:
        """Delivered images with at least one uncorrupted copy."""
        return len(self.delivered_ids) - len(self.corrupt_ids)

    @property
    def n_intact_groups(self) -> int:
        """Distinct scenes with at least one intact delivery —
        the information metric a damaged network actually yields."""
        corrupt = set(self.corrupt_ids)
        return len(
            {
                group
                for image_id, group in zip(
                    self.delivered_ids, self.delivered_groups
                )
                if image_id not in corrupt
            }
        )


@dataclass
class EpidemicSimulation:
    """Pairwise random contacts + gateway drains.

    ``policy_factory`` (default :class:`~repro.dtn.node.CareDropPolicy`)
    is called once; every node shares that policy, so a content-aware
    policy scores a pair of carried images once per simulation however
    many nodes carry them.
    """

    n_nodes: int
    buffer_capacity: int
    policy_factory: "type[DropPolicy] | None" = None
    contact_bandwidth: int = 3
    contacts_per_round: int = 2
    gateway_probability: float = 0.15
    seed: int = 0
    loss: "ContactLoss | None" = None
    nodes: "list[DtnNode]" = field(init=False)
    delivered: "list[CarriedImage]" = field(default_factory=list, init=False)
    transmissions: int = field(default=0, init=False)
    dropped_transmissions: int = field(default=0, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise SimulationError(f"need >= 2 nodes, got {self.n_nodes}")
        if self.contact_bandwidth < 1:
            raise SimulationError("contact_bandwidth must be >= 1")
        if not 0.0 <= self.gateway_probability <= 1.0:
            raise SimulationError("gateway_probability must be in [0, 1]")
        self._rng = np.random.default_rng(self.seed)
        policy = (self.policy_factory or CareDropPolicy)()
        self.nodes = [
            DtnNode(
                node_id=f"node-{index}",
                capacity=self.buffer_capacity,
                policy=policy,
            )
            for index in range(self.n_nodes)
        ]

    # -- workload ---------------------------------------------------------------

    def inject(self, node_index: int, carried: CarriedImage) -> bool:
        """A node takes a new photo (enters the DTN at that node)."""
        if not 0 <= node_index < self.n_nodes:
            raise SimulationError(f"node index out of range: {node_index}")
        return self.nodes[node_index].offer(carried)

    # -- dynamics ---------------------------------------------------------------

    def _exchange(self, sender: DtnNode, receiver: DtnNode) -> None:
        """One-way epidemic transfer under the contact bandwidth.

        With lossy contacts each forwarded copy draws a fate from the
        simulation's generator: a *drop* consumes contact bandwidth but
        never reaches the receiver; a *corruption* arrives with its
        ``intact`` flag cleared.  With ``loss=None`` (or all-zero
        rates) no draw happens, so loss-free dynamics — and journal
        payloads — are untouched.
        """
        sent = 0
        forwarded: "list[str]" = []
        lost: "list[str]" = []
        corrupted: "list[str]" = []
        for carried in list(sender.buffer):
            if sent >= self.contact_bandwidth:
                break
            if receiver.carries(carried.image_id):
                continue
            self.transmissions += 1
            sent += 1
            fate = "ok" if self.loss is None else self.loss.fate(self._rng)
            if fate == "drop":
                self.dropped_transmissions += 1
                lost.append(carried.image_id)
                continue
            if fate == "corrupt":
                corrupted.append(carried.image_id)
                carried = replace(carried, intact=False)
            forwarded.append(carried.image_id)
            receiver.offer(carried)
        obs = get_obs()
        if obs.enabled and sent:
            obs.dtn_transmissions.inc(sent, kind="relay")
            if lost:
                obs.dtn_transmissions.inc(len(lost), kind="lost")
        journal = get_journal()
        if journal.enabled and (forwarded or lost):
            data: "dict[str, object]" = {
                "sender": sender.node_id,
                "receiver": receiver.node_id,
                "image_ids": forwarded,
            }
            if self.loss is not None:
                data["lost"] = lost
                data["corrupted"] = corrupted
            journal.emit("dtn.forward", **data)

    def step(self) -> None:
        """One round: a few pairwise contacts + possible gateway visits."""
        for _ in range(self.contacts_per_round):
            a, b = self._rng.choice(self.n_nodes, size=2, replace=False)
            self._exchange(self.nodes[int(a)], self.nodes[int(b)])
            self._exchange(self.nodes[int(b)], self.nodes[int(a)])
        obs = get_obs()
        journal = get_journal()
        for node in self.nodes:
            if self._rng.random() < self.gateway_probability:
                drained = node.take_all()
                self.transmissions += len(drained)
                self.delivered.extend(drained)
                if obs.enabled and drained:
                    obs.dtn_transmissions.inc(len(drained), kind="gateway")
                    obs.dtn_delivered.inc(len(drained))
                if journal.enabled and drained:
                    journal.emit(
                        "dtn.deliver",
                        node=node.node_id,
                        image_ids=[carried.image_id for carried in drained],
                    )

    def run(self, rounds: int) -> DeliveryReport:
        """Advance *rounds* steps and report what the gateway received."""
        if rounds < 0:
            raise SimulationError(f"rounds must be >= 0, got {rounds}")
        with get_obs().span(
            "dtn.run", rounds=rounds, n_nodes=self.n_nodes
        ) as span:
            for _ in range(rounds):
                self.step()
            span.set_attribute("delivered", len(self.delivered))
            span.set_attribute("transmissions", self.transmissions)
        unique: dict[str, CarriedImage] = {}
        intact_by_id: dict[str, bool] = {}
        saw_corrupt: dict[str, bool] = {}
        for carried in self.delivered:
            unique.setdefault(carried.image_id, carried)
            intact_by_id[carried.image_id] = (
                intact_by_id.get(carried.image_id, False) or carried.intact
            )
            saw_corrupt[carried.image_id] = (
                saw_corrupt.get(carried.image_id, False) or not carried.intact
            )
        # Gateway-side reconciliation: epidemic copies are replicas, so
        # one intact arrival repairs the image; ids with no intact copy
        # stay corrupt (counted, not hidden).
        corrupt_ids = tuple(
            image_id for image_id in unique if not intact_by_id[image_id]
        )
        repaired = sum(
            1
            for image_id in unique
            if intact_by_id[image_id] and saw_corrupt[image_id]
        )
        return DeliveryReport(
            delivered_ids=tuple(unique),
            delivered_groups=tuple(
                carried.image.group_id for carried in unique.values()
            ),
            transmissions=self.transmissions,
            drops=sum(node.drops for node in self.nodes),
            rejections=sum(node.rejections for node in self.nodes),
            corrupt_ids=corrupt_ids,
            repaired=repaired,
        )
