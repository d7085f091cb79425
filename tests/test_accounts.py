import os
import random
import subprocess
import sys

import pytest

from xchain import accounts, ec
from xchain.accounts import (
    AccountKey,
    SignatureError,
    address_of,
    public_key,
    recover_digest,
    sign_digest,
)
from xchain.hashing import keccak256

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def affine_add(p1, p2):
    """Reference secp256k1 addition, one inversion per add."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def double_and_add(pt, k):
    """Reference k * pt: right-to-left double-and-add on affine_add."""
    k %= N
    acc = None
    while k:
        if k & 1:
            acc = affine_add(acc, pt)
        pt = affine_add(pt, pt)
        k >>= 1
    return acc


BETA, LAMBDA = accounts._BETA, accounts._LAMBDA
# edge scalars of the GLV split: lam and n - lam, sizes around a half's
# 128 bits, both ends of the range and negative values
GLV_SCALARS = (0, 1, 2, 3, 7, 255, 2**64 + 1, 2**128, 2**129 - 1,
               LAMBDA, N - LAMBDA, LAMBDA + 1, N - 1, N, N + 1, -1, -5)


def test_generator_sanity():
    # y^2 == x^3 + 7 for the configured generator
    x, y = public_key(1)
    assert (y * y - (x * x * x + 7)) % P == 0


def test_known_ethereum_addresses():
    assert address_of(1).hex() == "7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    assert address_of(2).hex() == "2b5ad5c4795c026514f8317c7a215e218dccd6cf"


def test_scalar_mul_matches_affine_addition():
    gen = public_key(1)
    acc = None
    for k in range(17):
        assert ec.mul(accounts._CURVE, gen, k) == acc
        acc = affine_add(acc, gen)
    assert ec.mul(accounts._CURVE, gen, N - 1) == (gen[0], P - gen[1])
    assert ec.mul(accounts._CURVE, gen, N) is None
    assert ec.mul(accounts._CURVE, gen, N + 1) == gen
    rng = random.Random(15)
    other = public_key(rng.randrange(1, N))
    # ec.add itself: sums, doublings, inverses and infinity
    pts = [None, gen, (gen[0], P - gen[1]), other, public_key(2)]
    for a in pts:
        for b in pts:
            assert ec.add(accounts._CURVE, a, b) == affine_add(a, b)
    for pt in (gen, other):
        for k in list(GLV_SCALARS) + [rng.randrange(N) for _ in range(20)]:
            assert ec.mul(accounts._CURVE, pt, k) == double_and_add(pt, k)


def test_sign_recover_round_trip():
    for i in range(1, 12):
        key = AccountKey.from_label(f"user{i}")
        digest = keccak256(f"payload {i}".encode())
        v, r, s = key.sign(digest)
        assert v in (27, 28)
        assert recover_digest(digest, v, r, s) == key.address


def test_recover_mismatch_on_other_digest():
    key = AccountKey.from_label("alice")
    digest = keccak256(b"original")
    v, r, s = key.sign(digest)
    assert recover_digest(keccak256(b"tampered"), v, r, s) != key.address


def test_deterministic_signatures():
    key = AccountKey.from_label("bob")
    digest = keccak256(b"same input")
    assert key.sign(digest) == key.sign(digest)


def test_invalid_signatures_rejected():
    digest = keccak256(b"x")
    with pytest.raises(SignatureError):
        recover_digest(digest, 27, 0, 0)
    with pytest.raises(SignatureError):
        recover_digest(digest, 29, 5, 5)
    with pytest.raises(SignatureError):
        sign_digest(b"short", 5)
    with pytest.raises(SignatureError):
        public_key(0)


def test_address_is_20_bytes_and_stable():
    assert len(address_of(42)) == 20
    assert address_of(42) == address_of(42)
    assert address_of(42) != address_of(43)


def test_account_address_derived_once(monkeypatch):
    key = AccountKey(private_key=42)
    assert key.address == address_of(42)
    monkeypatch.setattr(accounts, "address_of", None)  # a second call would fail
    assert key.address == address_of(42)


def test_point_address_is_the_key_hash():
    for k in (1, 2, 42):
        x, y = public_key(k)
        expected = keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[12:]
        assert accounts._point_address((x, y)) == expected == address_of(k)


def test_recovered_key_hashed_to_its_address_once(monkeypatch):
    """Two signatures by one key recover one public key: its address is
    hashed on the first recovery only, and address_of reuses it."""
    key = random.Random(18).randrange(1, N)
    digests = [keccak256(b"first"), keccak256(b"second")]
    signatures = [sign_digest(d, key) for d in digests]
    accounts._point_address.cache_clear()
    hashed = []

    def counted(data):
        hashed.append(data)
        return keccak256(data)

    monkeypatch.setattr(accounts, "keccak256", counted)
    recovered = [recover_digest.__wrapped__(d, *sig) for d, sig in zip(digests, signatures)]
    assert len(hashed) == 1
    assert recovered == [address_of(key)] * 2
    assert len(hashed) == 1


CURVE, G = accounts._CURVE, accounts._G
EDGE_SCALARS = (0, 1, 2, N - 1, N, N + 1, -5)


def test_fixed_base_matches_double_and_add():
    rng = random.Random(11)
    for k in [rng.randrange(N) for _ in range(100)] + list(EDGE_SCALARS):
        assert ec.fixed_mul(accounts._G_BASE, k) == double_and_add(G, k)


def test_endomorphism_constants():
    assert pow(BETA, 3, P) == 1 and BETA != 1
    assert (LAMBDA * LAMBDA + LAMBDA + 1) % N == 0
    assert double_and_add(G, LAMBDA) == (BETA * G[0] % P, G[1])
    assert CURVE.endo == (BETA, LAMBDA)


def test_glv_split_gives_short_halves():
    rng = random.Random(14)
    scalars = [0, 1, LAMBDA, N - LAMBDA, N - 1, 2**255 % N]
    for k in scalars + [rng.randrange(N) for _ in range(1000)]:
        k1, k2 = ec._split(CURVE, k)
        assert (k1 + k2 * LAMBDA - k) % N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129


def test_joint_matches_double_and_add():
    rng = random.Random(16)
    other = public_key(rng.randrange(1, N))
    cases = [(rng.randrange(N), other, rng.randrange(N)) for _ in range(10)]
    cases += [(a, pt, b) for pt in (G, other) for a in (0, 1, N - 1)
              for b in GLV_SCALARS]
    for a, pt, b in cases:
        expected = affine_add(double_and_add(G, a), double_and_add(pt, b))
        assert ec.joint_mul(accounts._G_BASE, a, pt, b) == expected


def test_recovery_takes_half_the_doublings(monkeypatch):
    """The GLV split halves the doublings of u1*G + u2*R: at most 132
    per recovery where a full-length u2 takes 256."""
    public_key(1)  # build G's comb table before counting
    calls = [0]
    double = ec._jac_double

    def counted(*args):
        calls[0] += 1
        return double(*args)

    monkeypatch.setattr(ec, "_jac_double", counted)
    rng = random.Random(17)
    for _ in range(20):
        key, digest = rng.randrange(1, N), rng.randbytes(32)
        v, r, s = sign_digest(digest, key)
        expected = address_of(key)
        calls[0] = 0
        assert recover_digest.__wrapped__(digest, v, r, s) == expected
        assert 100 < calls[0] <= 132


def test_joint_matches_two_multiplications():
    rng = random.Random(12)
    cases = [(rng.randrange(N), ec.mul(CURVE, G, rng.randrange(1, N)), rng.randrange(N))
             for _ in range(100)]
    other = public_key(7)
    cases += [(a, other, b) for a in EDGE_SCALARS for b in EDGE_SCALARS]
    cases += [(a, G, b) for a in EDGE_SCALARS for b in EDGE_SCALARS]
    for a, pt, b in cases:
        expected = ec.add(CURVE, ec.mul(CURVE, G, a), ec.mul(CURVE, pt, b))
        assert ec.joint_mul(accounts._G_BASE, a, pt, b) == expected


def test_joint_sum_at_infinity():
    base = accounts._G_BASE
    assert ec.joint_mul(base, 1, G, N - 1) is None
    assert ec.joint_mul(base, 5, public_key(5), -1) is None
    assert ec.joint_mul(base, -6, public_key(3), 2) is None
    assert ec.joint_mul(base, 3, None, 9) == public_key(3)


def test_recover_inverts_sign_on_random_keys():
    rng = random.Random(13)
    for _ in range(100):
        key = rng.randrange(1, N)
        digest = rng.randbytes(32)
        assert recover_digest(digest, *sign_digest(digest, key)) == address_of(key)


def test_generator_table_built_on_first_use():
    script = (
        "import xchain.accounts as a\n"
        "assert a._G_BASE.table is None\n"
        "a.public_key(3)\n"
        "assert len(a._G_BASE.table) == 256\n")
    src = os.path.join(os.path.dirname(accounts.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
