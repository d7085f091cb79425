from .types import (
    DuplicateShareIndex,
    InsufficientShares,
    InvalidConfig,
    KeyShare,
    SignatureShare,
    ThresholdConfig,
    ThresholdError,
    ThresholdSignature,
)
from .scheme import ORDER, ThresholdScheme, get_scheme, lagrange_at_zero

__all__ = [
    "DuplicateShareIndex",
    "InsufficientShares",
    "InvalidConfig",
    "KeyShare",
    "SignatureShare",
    "ThresholdConfig",
    "ThresholdError",
    "ThresholdSignature",
    "ORDER",
    "ThresholdScheme",
    "get_scheme",
    "lagrange_at_zero",
]
