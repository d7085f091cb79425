"""Shared threshold-signing types and errors."""

from dataclasses import dataclass
from typing import Any


class ThresholdError(ValueError):
    pass


class InvalidConfig(ThresholdError):
    pass


class InsufficientShares(ThresholdError):
    pass


class DuplicateShareIndex(ThresholdError):
    pass


class ThresholdConfig:
    """M-of-N signing parameters; f is the tolerated faulty validator count.

    Compares and hashes by (n, f, m): it keys the memo of dealer keys."""

    __slots__ = ("n", "f", "m")

    def __init__(self, n: int, f: int, m: int):
        if n < 1:
            raise InvalidConfig(f"need at least one participant, got n={n}")
        if not 1 <= m <= n:
            raise InvalidConfig(f"threshold m={m} outside 1..{n}")
        if f < 0:
            raise InvalidConfig(f"negative fault tolerance f={f}")
        self.n = n
        self.f = f
        self.m = m

    def __eq__(self, other):
        if type(other) is not ThresholdConfig:
            return NotImplemented
        return (self.n, self.f, self.m) == (other.n, other.f, other.m)

    def __hash__(self):
        return hash((self.n, self.f, self.m))

    @classmethod
    def from_fault_tolerance(cls, n: int, f: int) -> "ThresholdConfig":
        """Derive the signing threshold as m = f + 1."""
        return cls(n=n, f=f, m=f + 1)


# The share types stay dataclasses: tests and the engine's corrupt-share
# fault derive variants with dataclasses.replace. Nothing reads their repr.

@dataclass(frozen=True, repr=False)
class KeyShare:
    """One validator's secret share and the group key it belongs to."""

    index: int
    scalar: int
    group_public_key: Any


@dataclass(frozen=True, repr=False)
class SignatureShare:
    """One validator's partial signature over a message."""

    index: int
    point: Any


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined signature: one group element."""

    point: Any

