"""Exception hierarchy for the BEES reproduction.

Every error raised by the library derives from :class:`BeesError`, so a
caller can catch the whole family with one ``except`` clause while still
being able to distinguish configuration mistakes from runtime failures.
"""

from __future__ import annotations


class BeesError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(BeesError):
    """An invalid parameter or policy configuration was supplied."""


class ImageError(BeesError):
    """An image bitmap is malformed (wrong dtype, empty, bad shape...)."""


class CodecError(BeesError):
    """Encoding or decoding an image failed."""


class FeatureError(BeesError):
    """Feature extraction or matching was given invalid input."""


class IndexError_(BeesError):
    """A feature-index operation failed (duplicate id, unknown id...)."""


class EnergyError(BeesError):
    """A battery or energy-accounting operation is invalid."""


class NetworkError(BeesError):
    """A network transfer could not be carried out."""


class SimulationError(BeesError):
    """An end-to-end simulation was configured or driven incorrectly."""


class DatasetError(BeesError):
    """A synthetic dataset request was invalid."""


class ObservabilityError(BeesError):
    """A metrics or journal operation was misused (bad labels, ...)."""


class BenchError(BeesError):
    """A benchmark case, artifact, or comparison is invalid."""
