"""Keccak-256 message digests.

Pure-python Keccak-f[1600] sponge. The Ethereum flavour (pad byte 0x01)
is what the rest of the package uses; the NIST SHA3 flavour (pad byte
0x06) is exposed only so the permutation can be cross-checked against
hashlib in the test suite.

The state is one flat list of 25 64-bit lanes, lane (x, y) at index
x + 5y, so that a block's 17 little-endian words XOR straight into
lanes 0..16 and the digest is the first four lanes. The permutation
loads the lanes into local variables and runs each round unrolled
(theta, rho and pi fused, chi with iota), following the Keccak team's
implementation overview: every lane name and rotation is a constant.
"""

import struct

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE = 136  # bytes; capacity 512 bits for a 256-bit digest
_BLOCK = struct.Struct("<17Q")  # one block as rate lanes 0..16
_DIGEST = struct.Struct("<4Q")


def _keccak_f(state: list) -> None:
    """Keccak-f[1600] in place on 25 lanes; a{x}{y} is lane x + 5y.

    Rotation offsets r[x][y] (rho) are those of the Keccak reference;
    pi moves lane (x, y) to (y, 2x + 3y)."""
    M = 0xFFFFFFFFFFFFFFFF
    (a00, a10, a20, a30, a40,
     a01, a11, a21, a31, a41,
     a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43,
     a04, a14, a24, a34, a44) = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & M)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & M)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & M)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & M)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & M)
        # rho and pi: b[y][2x + 3y] = rotl(a[x][y] ^ d[x], r[x][y])
        b00 = a00 ^ d0
        t = a01 ^ d0
        b13 = (t << 36 | t >> 28) & M
        t = a02 ^ d0
        b21 = (t << 3 | t >> 61) & M
        t = a03 ^ d0
        b34 = (t << 41 | t >> 23) & M
        t = a04 ^ d0
        b42 = (t << 18 | t >> 46) & M
        t = a10 ^ d1
        b02 = (t << 1 | t >> 63) & M
        t = a11 ^ d1
        b10 = (t << 44 | t >> 20) & M
        t = a12 ^ d1
        b23 = (t << 10 | t >> 54) & M
        t = a13 ^ d1
        b31 = (t << 45 | t >> 19) & M
        t = a14 ^ d1
        b44 = (t << 2 | t >> 62) & M
        t = a20 ^ d2
        b04 = (t << 62 | t >> 2) & M
        t = a21 ^ d2
        b12 = (t << 6 | t >> 58) & M
        t = a22 ^ d2
        b20 = (t << 43 | t >> 21) & M
        t = a23 ^ d2
        b33 = (t << 15 | t >> 49) & M
        t = a24 ^ d2
        b41 = (t << 61 | t >> 3) & M
        t = a30 ^ d3
        b01 = (t << 28 | t >> 36) & M
        t = a31 ^ d3
        b14 = (t << 55 | t >> 9) & M
        t = a32 ^ d3
        b22 = (t << 25 | t >> 39) & M
        t = a33 ^ d3
        b30 = (t << 21 | t >> 43) & M
        t = a34 ^ d3
        b43 = (t << 56 | t >> 8) & M
        t = a40 ^ d4
        b03 = (t << 27 | t >> 37) & M
        t = a41 ^ d4
        b11 = (t << 20 | t >> 44) & M
        t = a42 ^ d4
        b24 = (t << 39 | t >> 25) & M
        t = a43 ^ d4
        b32 = (t << 8 | t >> 56) & M
        t = a44 ^ d4
        b40 = (t << 14 | t >> 50) & M
        # chi, with iota on lane (0, 0)
        a00 = b00 ^ (~b10 & b20) ^ rc
        a10 = b10 ^ (~b20 & b30)
        a20 = b20 ^ (~b30 & b40)
        a30 = b30 ^ (~b40 & b00)
        a40 = b40 ^ (~b00 & b10)
        a01 = b01 ^ (~b11 & b21)
        a11 = b11 ^ (~b21 & b31)
        a21 = b21 ^ (~b31 & b41)
        a31 = b31 ^ (~b41 & b01)
        a41 = b41 ^ (~b01 & b11)
        a02 = b02 ^ (~b12 & b22)
        a12 = b12 ^ (~b22 & b32)
        a22 = b22 ^ (~b32 & b42)
        a32 = b32 ^ (~b42 & b02)
        a42 = b42 ^ (~b02 & b12)
        a03 = b03 ^ (~b13 & b23)
        a13 = b13 ^ (~b23 & b33)
        a23 = b23 ^ (~b33 & b43)
        a33 = b33 ^ (~b43 & b03)
        a43 = b43 ^ (~b03 & b13)
        a04 = b04 ^ (~b14 & b24)
        a14 = b14 ^ (~b24 & b34)
        a24 = b24 ^ (~b34 & b44)
        a34 = b34 ^ (~b44 & b04)
        a44 = b44 ^ (~b04 & b14)
    state[:] = (a00, a10, a20, a30, a40,
                a01, a11, a21, a31, a41,
                a02, a12, a22, a32, a42,
                a03, a13, a23, a33, a43,
                a04, a14, a24, a34, a44)


def _sponge_256(data: bytes, pad_byte: int) -> bytes:
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded += bytes([pad_byte] + [0] * (pad_len - 1))
    padded[-1] ^= 0x80

    state = [0] * 25
    for offset in range(0, len(padded), _RATE):
        for i, lane in enumerate(_BLOCK.unpack_from(padded, offset)):
            state[i] ^= lane
        _keccak_f(state)
    return _DIGEST.pack(*state[:4])  # 32 bytes: the first four lanes


def keccak256(data: bytes) -> bytes:
    """Ethereum-style Keccak-256 digest (original pad 0x01)."""
    return _sponge_256(data, 0x01)


def sha3_256(data: bytes) -> bytes:
    """NIST SHA3-256 (pad 0x06); kept for oracle tests against hashlib."""
    return _sponge_256(data, 0x06)
