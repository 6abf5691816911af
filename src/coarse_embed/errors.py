"""Shared exception types and global size caps."""

import os

ENV_CAP = "COARSE_EMBED_CAP"
DEFAULT_POINT_CAP = 2_000_000


class ConfigError(ValueError):
    """The caller's configuration (keys, values, config file, cap) is invalid."""


class CapExceeded(RuntimeError):
    """A construction would exceed the configured size cap."""


class ContractViolation(RuntimeError):
    """Measured statistics violate the contract of a construction."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoverageError(ContractViolation):
    """A cover misses a point it must contain, which is the witness."""


def point_cap():
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_POINT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_CAP} must be an integer, got {raw!r}") from None


def guard_cap(count, what):
    """Raise CapExceeded when count passes the cap; what names the things
    counted, unit included ("... points", "... pairs")."""
    cap = point_cap()
    if count > cap:
        raise CapExceeded(f"{what}: {count} exceeds cap {cap} (set {ENV_CAP} to raise)")
    return count
