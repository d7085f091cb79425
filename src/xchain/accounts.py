"""Ethereum-style account keys: secp256k1 recoverable ECDSA signatures
and keccak-derived 20-byte addresses.

secp256k1 is y^2 = x^3 + 7, an a = 0 curve: its points are added and
multiplied by the group law in ``xchain.ec`` that BN254 G1 and G2 use
too. Every multiple of the generator G (public keys, signing nonces)
reads G's comb table, which the first such multiple builds; recovery
computes u1*G + u2*R in one joint pass over that table and u2's
multiples of R.

The curve carries the endomorphism phi(x, y) = (beta*x, y), which maps
every point P to lam*P (beta a cube root of unity mod p, lam one mod
n). Recovery splits u2 into k1 + k2*lam with both halves of ~128 bits,
so u2*R = k1*R + k2*phi(R) takes ~128 doublings instead of ~256, and
phi(R)'s odd multiples are R's with x scaled by beta.

A public key is hashed to its address once per process: ``address_of``
and ``recover_digest`` share one memo of that hash, since the
signatures a run recovers come from the few keys whose addresses it has
already derived. ``recover_digest`` keeps its own memo of whole
signatures, because validators re-verify the same transactions.

The nonce k is derived deterministically by hashing (simulation grade,
not RFC 6979 and not constant time). V is 27/28 and is never folded
with a chain identifier; replay protection comes from the sidechain
identifiers carried in the transaction body instead.
"""

from functools import cached_property, lru_cache
from typing import Tuple

from . import ec
from .hashing import keccak256

_P = 2**256 - 2**32 - 977
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
_G = (_GX, _GY)
# phi(x, y) = (beta * x, y) = lam * (x, y): beta^3 = 1 mod p, lam^3 = 1 mod n
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_CURVE = ec.Curve(_P, 7, _N, endo=(_BETA, _LAMBDA))
_G_BASE = ec.FixedBase(_CURVE, _G)


class SignatureError(ValueError):
    pass


def public_key(private_key: int) -> Tuple[int, int]:
    if not 1 <= private_key < _N:
        raise SignatureError("private key out of range")
    return ec.fixed_mul(_G_BASE, private_key)


def address_of(private_key: int) -> bytes:
    return _point_address(public_key(private_key))


@lru_cache(maxsize=4096)
def _point_address(point) -> bytes:
    """keccak256(x || y)[12:] of a public key, hashed once per key."""
    x, y = point
    return keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[12:]


def sign_digest(digest: bytes, private_key: int) -> Tuple[int, int, int]:
    """Sign a 32-byte digest; returns (v, r, s) with v in {27, 28} and
    low-s normalization."""
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    z = int.from_bytes(digest, "big")
    counter = 0
    while True:
        k = int.from_bytes(
            keccak256(private_key.to_bytes(32, "big") + digest
                      + counter.to_bytes(4, "big")), "big") % _N
        counter += 1
        if k == 0:
            continue
        rx, ry = ec.fixed_mul(_G_BASE, k)
        r = rx % _N
        if r == 0 or rx >= _N:  # rx >= _N would need recovery id 2/3; retry
            continue
        s = (z + r * private_key) * pow(k, -1, _N) % _N
        if s == 0:
            continue
        recovery = ry & 1
        if s > _N // 2:
            s = _N - s
            recovery ^= 1
        return (27 + recovery, r, s)


@lru_cache(maxsize=16384)
def recover_digest(digest: bytes, v: int, r: int, s: int) -> bytes:
    """Recover the signing address from a signature over a digest.

    Pure function of its arguments, memoized because validators
    re-verify the same signed transactions many times per run."""
    if v not in (27, 28):
        raise SignatureError(f"invalid recovery id v={v}")
    if not (1 <= r < _N and 1 <= s < _N):
        raise SignatureError("r or s out of range")
    z = int.from_bytes(digest, "big")
    # rebuild R from its x coordinate and the parity encoded in v
    alpha = (r * r * r + 7) % _P
    y = pow(alpha, (_P + 1) // 4, _P)
    if y * y % _P != alpha:
        raise SignatureError("signature r is not an x coordinate on the curve")
    if y & 1 != v - 27:
        y = _P - y
    r_inv = pow(r, -1, _N)
    point = ec.joint_mul(_G_BASE, -z * r_inv, (r, y), s * r_inv)
    if point is None:
        raise SignatureError("signature recovers to the point at infinity")
    return _point_address(point)


class AccountKey:
    """Convenience wrapper pairing a private scalar with its address."""

    def __init__(self, private_key: int):
        self.private_key = private_key

    @cached_property
    def address(self) -> bytes:
        """Derived once per key: it costs a scalar multiplication."""
        return address_of(self.private_key)

    @classmethod
    def from_label(cls, label: str) -> "AccountKey":
        """Deterministic key for scenario fixtures. One instance per
        label, so its address is derived once per process."""
        return _labelled_key(cls, label)

    def sign(self, digest: bytes) -> Tuple[int, int, int]:
        return sign_digest(digest, self.private_key)


@lru_cache(maxsize=1024)
def _labelled_key(cls, label: str) -> AccountKey:
    scalar = int.from_bytes(keccak256(b"account:" + label.encode()), "big") % _N
    return cls(private_key=scalar or 1)
