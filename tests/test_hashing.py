import hashlib

from hypothesis import given, strategies as st

from xchain.hashing import keccak256, sha3_256

# Well-known digests: the empty-input constant that appears all over
# Ethereum codebases, and the classic "abc" vector.
GOLDEN = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
}


def test_known_vectors():
    for message, digest in GOLDEN.items():
        assert keccak256(message).hex() == digest


@given(st.binary(max_size=512))
def test_sha3_variant_matches_hashlib(data):
    # same permutation and sponge, different pad byte: hashlib provides
    # a full independent oracle for everything but the final 0x01/0x06
    assert sha3_256(data) == hashlib.sha3_256(data).digest()


@given(st.binary(max_size=200))
def test_digest_properties(data):
    digest = keccak256(data)
    assert len(digest) == 32
    assert keccak256(data) == digest
    assert keccak256(data + b"\x00") != digest


def test_block_boundary_lengths():
    # rate is 136 bytes; check the empty input, inputs straddling the
    # boundary and inputs of three or more blocks
    for n in (0, 134, 135, 136, 137, 271, 272, 273, 407, 408, 409, 1000):
        data = bytes(range(256))[:1] * n
        assert sha3_256(data) == hashlib.sha3_256(data).digest()
