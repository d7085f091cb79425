"""Threshold signature operations over pluggable group backends.

Two backends ship:

  * ``bn254``: BLS-style signatures. Secrets are Shamir shares over the
    curve order, partial signatures are H(m) scaled by the share in G1,
    public keys live in G2, and verification is the pairing relation
    e(H(m), pk) == e(sig, G2).

  * ``modp``: a fast non-hiding test double. The "group" is the scalar
    field itself (public keys reveal the secrets), but every behavioural
    contract -- thresholds, Lagrange combination, verification failure
    on bad shares -- is identical.

All operations are pure functions of their inputs and seeds.
"""

from functools import lru_cache
from typing import Dict, List, Sequence

from ..hashing import keccak256
from .types import (
    DuplicateShareIndex,
    InsufficientShares,
    InvalidConfig,
    KeyShare,
    SignatureShare,
    ThresholdConfig,
    ThresholdSignature,
)

# The scalar field shared by both backends: bn254.N, written out so that
# the modp backend never imports bn254 (a test pins the two equal).
ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617


def _scalar_stream(domain: bytes, seed: int, count: int) -> List[int]:
    """Deterministic uniform-ish scalars derived by hashing."""
    out = []
    base = domain + seed.to_bytes(8, "big", signed=False)
    for k in range(count):
        digest = keccak256(base + k.to_bytes(4, "big"))
        out.append(int.from_bytes(digest, "big") % ORDER)
    return out


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ORDER
    return acc


def lagrange_at_zero(indices: Sequence[int]) -> Dict[int, int]:
    """Lagrange basis coefficients lambda_i evaluated at x = 0."""
    lams = {}
    for i in indices:
        num, den = 1, 1
        for j in indices:
            if j != i:
                num = num * j % ORDER
                den = den * (j - i) % ORDER
        lams[i] = num * pow(den, -1, ORDER) % ORDER
    return lams


# Distinct messages one backend instance remembers the base of.
_BASES_KEPT = 4096


class _Backend:
    """Memoizes ``hash_to_base`` per instance: every share of a message
    is signed and checked against the same base, which is a keccak
    (modp) or a try-and-increment search onto G1 (bn254)."""

    def __init__(self):
        self.hash_to_base = lru_cache(maxsize=_BASES_KEPT)(self._hash_to_base)


class _ModPBackend(_Backend):
    """Scalar-field stand-in group; see module docstring."""

    name = "modp"

    def commit(self, scalar):
        return scalar % ORDER

    def _hash_to_base(self, message: bytes):
        h = int.from_bytes(keccak256(b"modp-base" + message), "big") % ORDER
        return h if h != 0 else 1

    def sig_scale(self, base, scalar):
        return base * scalar % ORDER

    def sig_add(self, a, b):
        return (a + b) % ORDER

    def sig_zero(self):
        return 0

    def pair_check(self, public_key, message: bytes, sig_point) -> bool:
        return sig_point == self.hash_to_base(message) * public_key % ORDER

    def commit_bytes(self, c) -> bytes:
        return int(c).to_bytes(32, "big")


class _Bn254Backend(_Backend):
    """Each method imports ``bn254`` when it runs, so that a process
    which never signs on bn254 never loads the curve module."""

    name = "bn254"

    def commit(self, scalar):
        from . import bn254
        return bn254.g2_mul(bn254.G2, scalar)

    def _hash_to_base(self, message: bytes):
        from . import bn254
        return bn254.hash_to_g1(message)

    def sig_scale(self, base, scalar):
        from . import bn254
        return bn254.g1_mul(base, scalar)

    def sig_add(self, a, b):
        from . import bn254
        return bn254.g1_add(a, b)

    def sig_zero(self):
        return None

    def pair_check(self, public_key, message: bytes, sig_point) -> bool:
        from . import bn254
        # e(H(m), pk) * e(-sig, G2) == 1
        if sig_point is not None and not bn254.g1_on_curve(sig_point):
            return False
        return bn254.pairing_check([
            (self.hash_to_base(message), public_key),
            (bn254.g1_neg(sig_point), bn254.G2),
        ])

    def commit_bytes(self, c) -> bytes:
        from . import bn254
        return bn254.g2_to_bytes(c)


class ThresholdScheme:
    """Dealer keygen, signing, combining and verification over one
    group backend."""

    def __init__(self, backend):
        self.backend = backend
        self.name = backend.name

    # -- key generation ----------------------------------------------------

    def keygen_dealer(self, config: ThresholdConfig, rng_seed: int):
        """Trusted-dealer share generation.

        Returns (shares, group_public_key). Any m of the n shares
        combine to a signature verifying under the public key.
        """
        coeffs = _scalar_stream(b"dealer", rng_seed, config.m)
        pk = self.backend.commit(coeffs[0])
        shares = [KeyShare(index=i, scalar=_poly_eval(coeffs, i), group_public_key=pk)
                  for i in range(1, config.n + 1)]
        return shares, pk

    def public_share(self, share: KeyShare):
        """Public counterpart of one private share."""
        return self.backend.commit(share.scalar)

    # -- signing -----------------------------------------------------------

    def sign_share(self, share: KeyShare, message: bytes) -> SignatureShare:
        base = self.backend.hash_to_base(message)
        return SignatureShare(index=share.index,
                              point=self.backend.sig_scale(base, share.scalar))

    def verify_share(self, public_share, message: bytes,
                     sig_share: SignatureShare) -> bool:
        return self.backend.pair_check(public_share, message, sig_share.point)

    def combine(self, shares: Sequence[SignatureShare],
                config: ThresholdConfig) -> ThresholdSignature:
        """Lagrange-combine signature shares.

        The result is the same group element for any valid subset of at
        least m shares over one message.
        """
        indices = [s.index for s in shares]
        if len(set(indices)) != len(indices):
            raise DuplicateShareIndex(f"duplicate share indices in {indices}")
        if len(shares) < config.m:
            raise InsufficientShares(
                f"need {config.m} shares, got {len(shares)}")
        lams = lagrange_at_zero(indices)
        acc = self.backend.sig_zero()
        for s in shares:
            acc = self.backend.sig_add(acc, self.backend.sig_scale(s.point, lams[s.index]))
        return ThresholdSignature(point=acc)

    def verify(self, public_key, message: bytes,
               signature: ThresholdSignature) -> bool:
        return self.backend.pair_check(public_key, message, signature.point)

    # -- serialization helpers ----------------------------------------------

    def public_key_bytes(self, public_key) -> bytes:
        return self.backend.commit_bytes(public_key)


_SCHEMES = {
    "modp": ThresholdScheme(_ModPBackend()),
    "bn254": ThresholdScheme(_Bn254Backend()),
}


def get_scheme(name: str) -> ThresholdScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise InvalidConfig(f"unknown threshold scheme {name!r}") from None
