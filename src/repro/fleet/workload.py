"""Deterministic multi-device fleet workloads.

Every (device, round, slot) triple maps to exactly one image, generated
on demand from the workload seed — no shared RNG stream, so batches can
be produced in any order and always come out identical.  That is the
foundation the fleet equivalence contract stands on: two runs of one
seed, or a run and its ``--verify`` rerun, consume literally the same
pixels.

The scene layout manufactures both kinds of redundancy the BEES
pipeline eliminates:

* **Cross-device** — the first ``shared_fraction`` of each batch is
  drawn from *fleet-shared* scenes that persist across rounds: every
  device photographs the same scene each round, through its own view.
  Round 0's committed uploads put those scenes in the index, so from
  round 1 on the re-captures are CBRD-redundant — the cross-device,
  cross-round elimination the shared index exists for.
* **In-batch** — every third device-private slot re-shoots the previous
  slot's scene, giving SSMM pairs to collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..imaging.image import Image
from ..imaging.synth import SceneGenerator

#: Scene-seed spacing between workload seeds; large enough that one
#: workload's shared and private scene ranges never overlap the next's.
_SEED_STRIDE = 1_000_000
#: Offset separating device-private scene seeds from fleet-shared ones.
_PRIVATE_OFFSET = 500_000


def _default_generator() -> SceneGenerator:
    # The reduced frame keeps ORB extraction fast enough to run dozens
    # of fleet batches inside the test suite.
    return SceneGenerator(height=72, width=96)


@dataclass
class FleetWorkload:
    """Image batches for ``n_devices`` devices over ``n_rounds`` rounds."""

    n_devices: int = 4
    n_rounds: int = 3
    batch_size: int = 8
    seed: int = 0
    #: Fraction of each batch drawn from fleet-shared scenes.
    shared_fraction: float = 0.5
    generator: SceneGenerator = field(default_factory=_default_generator)

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise SimulationError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.n_rounds < 1:
            raise SimulationError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise SimulationError(
                f"shared_fraction must be in [0, 1], got {self.shared_fraction}"
            )

    @property
    def n_shared_slots(self) -> int:
        """Slots per batch drawn from fleet-shared scenes."""
        return int(round(self.batch_size * self.shared_fraction))

    def batch_for(self, device: int, round_no: int) -> "list[Image]":
        """The batch *device* captures in *round_no* (pure function)."""
        if not 0 <= device < self.n_devices:
            raise SimulationError(
                f"device must be in [0, {self.n_devices}), got {device}"
            )
        if not 0 <= round_no < self.n_rounds:
            raise SimulationError(
                f"round_no must be in [0, {self.n_rounds}), got {round_no}"
            )
        base = self.seed * _SEED_STRIDE
        images = []
        for slot in range(self.batch_size):
            image_id = f"d{device:02d}-r{round_no:02d}-i{slot:02d}"
            if slot < self.n_shared_slots:
                # Fleet-shared scene, persistent across rounds: every
                # (device, round) contributes a distinct view of it.
                scene = base + slot
                view = round_no * self.n_devices + device
                group = f"shared-s{slot}"
            elif slot % 3 == 2 and slot - 1 >= self.n_shared_slots:
                # Re-shoot the previous private slot: in-batch redundancy.
                scene = self._private_scene(device, round_no, slot - 1)
                view = 1
                group = f"dev{device}-r{round_no}-s{slot - 1}"
            else:
                scene = self._private_scene(device, round_no, slot)
                view = 0
                group = f"dev{device}-r{round_no}-s{slot}"
            images.append(
                self.generator.view(
                    scene, view, image_id=image_id, group_id=group
                )
            )
        return images

    def _private_scene(self, device: int, round_no: int, slot: int) -> int:
        base = self.seed * _SEED_STRIDE + _PRIVATE_OFFSET
        return (
            base
            + (round_no * self.n_devices + device) * self.batch_size
            + slot
        )
