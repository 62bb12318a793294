"""Multi-device fleet simulation.

Runs N :class:`~repro.sim.device.Smartphone` devices, one after another
in device order, against one shared server and its one
:class:`~repro.index.FeatureIndex` under round-barrier semantics: no
device sees another device's uploads of the same round.  See
:mod:`repro.fleet.staging` for the protocol and
:mod:`repro.fleet.report` for the equivalence contract a same-seed
rerun and a journal replay are held to.
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
