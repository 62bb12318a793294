"""The scheme registry: name → fresh scheme instance.

One neutral home for the mapping the CLI, the fleet runtime, and the
benchmarks all need, so none of them import each other for it.  Scheme
instances are *not* shareable across devices — ``process_batch``
wires the device's cost model into the scheme's stages — which is
why the registry deals in factories, not singletons: every caller gets
its own instance.
"""

from __future__ import annotations

from typing import Callable

from .baselines import DirectUpload, Mrc, PhotoNet, SmartEye, make_bees_ea
from .baselines.base import SharingScheme
from .core.client import BeesScheme
from .errors import SimulationError

SCHEME_FACTORIES: "dict[str, Callable[[], SharingScheme]]" = {
    "direct": DirectUpload,
    "smarteye": SmartEye,
    "mrc": Mrc,
    "photonet": PhotoNet,
    "bees-ea": make_bees_ea,
    "bees": BeesScheme,
}


def scheme_names() -> "list[str]":
    """The registered scheme names, sorted."""
    return sorted(SCHEME_FACTORIES)


def make_scheme(name: str) -> SharingScheme:
    """A fresh instance of the named scheme."""
    try:
        factory = SCHEME_FACTORIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown scheme {name!r}; choose from {scheme_names()}"
        ) from None
    return factory()
