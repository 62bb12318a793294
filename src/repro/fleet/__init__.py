"""Concurrent multi-device fleet simulation.

Runs N :class:`~repro.sim.device.Smartphone` devices against one shared
server and its one :class:`~repro.index.FeatureIndex` under round-barrier
semantics that make the concurrent run **byte-identical** to the
sequential reference run of the same seed.  See
:mod:`repro.fleet.staging` for the protocol and
:mod:`repro.fleet.report` for the equivalence contract.
"""

from .replay import ReplayReport, format_replay, replay_journal
from .report import DeviceResult, FleetResult, assert_equivalent
from .runner import MODES, FleetRunner
from .staging import StagedServer, StagedUpload
from .workload import FleetWorkload

__all__ = [
    "DeviceResult",
    "FleetResult",
    "FleetRunner",
    "FleetWorkload",
    "MODES",
    "ReplayReport",
    "StagedServer",
    "StagedUpload",
    "assert_equivalent",
    "format_replay",
    "replay_journal",
]
