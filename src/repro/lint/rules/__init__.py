"""The BEES-specific rule set.

Importing this package registers every rule; the registry is the only
coupling between the engine and the rules.
"""

from __future__ import annotations

from . import battery, constants, floateq, journal, rng, units

__all__ = [
    "battery",
    "constants",
    "floateq",
    "journal",
    "rng",
    "units",
]
