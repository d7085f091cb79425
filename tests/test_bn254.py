"""Curve-level checks for the pairing backend: parameter relations,
group laws, and the bilinearity relation e(k*P, Q) == e(P, k*Q) that
verification rests on."""

import hashlib
from types import SimpleNamespace

import pytest

from xchain import ec
from xchain.hashing import keccak256
from xchain.threshold import bn254 as curve


def test_parameters_derive_from_u():
    u = curve.U
    assert int(curve.P) == 36 * u**4 + 36 * u**3 + 24 * u**2 + 6 * u + 1
    assert curve.N == 36 * u**4 + 36 * u**3 + 18 * u**2 + 6 * u + 1
    assert curve.ATE_LOOP_COUNT == 6 * u + 2


def test_generators_valid():
    assert curve.g1_on_curve(curve.G1)
    assert curve.g2_on_curve(curve.G2)
    assert curve.g1_mul(curve.G1, curve.N) is None
    assert curve.g2_mul(curve.G2, curve.N) is None


# Test-local field arithmetic for the reference law, independent of
# ``ec`` and ``_Fp2``: ints mod P for G1, bn254's f2_* tuples for G2.
_FP = SimpleNamespace(
    zero=0, add=lambda a, b: (a + b) % curve.P, sub=lambda a, b: (a - b) % curve.P,
    mul=lambda a, b: a * b % curve.P, sqr=lambda a: a * a % curve.P,
    scale=lambda a, k: a * k % curve.P, inv=lambda a: pow(a, -1, curve.P))
_FP2 = SimpleNamespace(
    zero=curve.F2_ZERO, add=curve.f2_add, sub=curve.f2_sub, mul=curve.f2_mul,
    sqr=curve.f2_sqr, scale=curve.f2_scale, inv=curve.f2_inv)


def _affine_add(field, p1, p2):
    """Reference addition over field (``_FP`` or ``_FP2``): the chord and
    tangent law, one inversion per add."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if y1 != y2 or y1 == field.zero:
            return None
        lam = field.mul(field.scale(field.sqr(x1), 3),
                        field.inv(field.scale(y1, 2)))
    else:
        lam = field.mul(field.sub(y2, y1), field.inv(field.sub(x2, x1)))
    x3 = field.sub(field.sub(field.sqr(lam), x1), x2)
    return (x3, field.sub(field.mul(lam, field.sub(x1, x3)), y1))


def _g1_ref_add(p1, p2):
    return _affine_add(_FP, p1, p2)


def _g2_ref_add(p1, p2):
    return _affine_add(_FP2, p1, p2)


def test_group_law():
    p2 = curve.g1_add(curve.G1, curve.G1)
    p3 = curve.g1_add(p2, curve.G1)
    assert p3 == curve.g1_mul(curve.G1, 3)
    assert curve.g1_add(p2, curve.g1_neg(p2)) is None
    q2 = curve.g2_add(curve.G2, curve.G2)
    assert q2 == curve.g2_mul(curve.G2, 2)
    assert curve.g2_add(q2, curve.g2_neg(q2)) is None
    # against the reference law: sums, doublings, inverses and infinity
    for add, ref, mul, neg, gen in (
            (curve.g1_add, _g1_ref_add, curve.g1_mul, curve.g1_neg, curve.G1),
            (curve.g2_add, _g2_ref_add, curve.g2_mul, curve.g2_neg, curve.G2)):
        pts = [None, gen, neg(gen), mul(gen, 2), mul(gen, 2**200 + 7)]
        for a in pts:
            for b in pts:
                assert add(a, b) == ref(a, b)


def _double_and_add(add, pt, k):
    """Reference k * pt: right-to-left double-and-add on the affine law."""
    k %= curve.N
    acc = None
    while k:
        if k & 1:
            acc = add(acc, pt)
        pt = add(pt, pt)
        k >>= 1
    return acc


@pytest.mark.parametrize("mul,add,neg,gen", [
    (curve.g1_mul, _g1_ref_add, curve.g1_neg, curve.G1),
    (curve.g2_mul, _g2_ref_add, curve.g2_neg, curve.G2),
], ids=["g1", "g2"])
def test_scalar_mul_matches_affine_addition(mul, add, neg, gen):
    acc = None
    for k in range(17):
        assert mul(gen, k) == acc
        acc = add(acc, gen)
    assert mul(gen, curve.N) is None
    assert mul(gen, curve.N + 1) == gen
    assert mul(gen, curve.N - 1) == neg(gen)
    assert mul(gen, -1) == neg(gen)
    a, b = 2**253 + 12345, curve.N - 2**200
    assert mul(gen, a + b) == add(mul(gen, a), mul(gen, b))
    import random
    rng = random.Random(7)
    n, lam = curve.N, curve._LAMBDA
    other = _double_and_add(add, gen, rng.randrange(1, n))
    scalars = [0, 1, 2, 3, 10, 2**64 - 1, 2**64 + 1, 2**128, lam, n - lam,
               n - 1, n, n + 1, -1, -7] + [rng.randrange(n) for _ in range(8)]
    for k in scalars + list(range(1, 11)):  # and the Horner indices 1..n
        assert mul(other, k) == _double_and_add(add, other, k)
    for k in (0, 1, 5, curve.N - 1):
        assert mul(None, k) is None


def test_g1_endomorphism_constants():
    beta, lam = curve._BETA, curve._LAMBDA
    assert pow(beta, 3, curve.P) == 1 and beta != 1
    assert (lam * lam + lam + 1) % curve.N == 0
    assert _double_and_add(_g1_ref_add, curve.G1, lam) == (beta * curve.G1[0] % curve.P,
                                                           curve.G1[1])
    assert curve._F1.endo == (beta, lam)
    assert curve._F2.endo is None


def test_g1_glv_split_gives_short_halves():
    import random
    rng = random.Random(6)
    n, lam = curve.N, curve._LAMBDA
    for k in [0, 1, lam, n - lam, n - 1, 2**255 % n] + [rng.randrange(n) for _ in range(1000)]:
        k1, k2 = ec._split(curve._F1, k)
        assert (k1 + k2 * lam - k) % n == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129


def test_short_scalars_build_no_table(monkeypatch):
    """Horner steps multiply by indices 1..n: no odd-multiple table, so
    the one inversion is the final conversion to affine."""
    other = curve.g2_mul(curve.G2, 12345)
    inversions = [0]
    inv = curve._Fp2.__pow__

    def counted(x, e, p):
        inversions[0] += 1
        return inv(x, e, p)

    monkeypatch.setattr(curve._Fp2, "__pow__", counted)
    for k in range(1, 11):
        inversions[0] = 0
        curve.g2_mul(other, k)
        assert inversions[0] == 1


def test_g2_generator_table_matches_double_and_add():
    import random
    rng = random.Random(9)
    scalars = [0, 1, 2, 17, curve.N - 1, curve.N, curve.N + 1, -3, 2**253 + 12345]
    for k in scalars + [rng.randrange(curve.N) for _ in range(6)]:
        expected = ec.mul(curve._F2, curve._to_f2(curve.G2), k)
        assert curve.g2_mul(curve.G2, k) == curve._from_f2(expected)


def test_jacobian_addition_special_cases():
    # Unreachable from g1_mul/g2_mul on points of order N, but kept so
    # that scalar multiplication stays a group law on every curve point.
    # Run on Fp (ints) and on Fp2 (_Fp2), where Z == 0 is a false zero.
    for field, (x, y), zero in ((curve._F1, curve.G1, 0),
                                (curve._F2, curve._to_f2(curve.G2), curve._Fp2(0, 0))):
        one = field.one
        assert ec._jac_add_affine(field, x, y, one, x, y) \
            == ec._jac_double(field, x, y, one)
        assert ec._jac_double(field, x, y, one)[2]
        neg_y = ec.neg(field, (x, y))[1]
        sum_z = ec._jac_add_affine(field, x, neg_y, one, x, y)[2]
        assert not sum_z and sum_z == zero
        assert ec._jac_add_affine(field, one, one, zero, x, y) == (x, y, one)
        doubled_z = ec._jac_double(field, one, one, zero)[2]
        assert not doubled_z and doubled_z == zero


def test_fp2_operators_match_f2_functions():
    """``_Fp2``'s operators against the tuple f2_* functions: products
    (the squaring shortcut and the general one), reduction, inversion,
    scaling, sums and truth, on random elements and all-(p-1) ones."""
    import random
    rng = random.Random(8)
    p, F = curve.P, curve._Fp2
    elements = [(p - 1, p - 1), (p - 1, 0), (0, p - 1), (1, 0)]
    elements += [(rng.randrange(p), rng.randrange(p)) for _ in range(12)]

    def pair(x):
        return (x.a, x.b)

    for a in elements:
        x = F(*a)
        assert pair(x * x % p) == curve.f2_sqr(a) == curve.f2_mul(a, a)
        assert pair(x * F(*a) % p) == curve.f2_mul(a, a)
        assert pair(pow(x, -1, p)) == curve.f2_inv(a)
        assert pair(pow(x, -1, p) * x % p) == curve.F2_ONE
        assert pair(7 * x % p) == curve.f2_scale(a, 7)
        assert pair(-x % p) == curve.f2_neg(a)
        for b in elements[:6]:
            y = F(*b)
            assert pair(x * y % p) == curve.f2_mul(a, b)
            assert pair((x + y) % p) == curve.f2_add(a, b)
            assert pair((x - y) % p) == curve.f2_sub(a, b)
        assert x and x % p == x
    assert not F(0, 0) and F(0, 1) and F(1, 0)
    assert not (F(p - 1, 1) + F(1, p - 1)) % p


def test_on_curve_requires_reduced_coordinates():
    """A coordinate off by a multiple of p still solves the curve
    equation mod p, but would give the point a second encoding."""
    from xchain.threshold.scheme import _Bn254Backend
    p = curve.P
    x, y = curve.G1
    for bad in ((x + p, y), (x, y + p), (x - p, y), (x, y - p)):
        assert not curve.g1_on_curve(bad)
    (x0, x1), (y0, y1) = curve.G2
    for bad in (((x0 + p, x1), (y0, y1)), ((x0, x1 + p), (y0, y1)),
                ((x0, x1), (y0 - p, y1)), ((x0, x1), (y0, y1 + p))):
        assert not curve.g2_on_curve(bad)
    assert curve.g1_on_curve(curve.G1) and curve.g2_on_curve(curve.G2)
    # a signature has one byte encoding: the pairing check refuses the other
    backend, secret, message = _Bn254Backend(), 424242, b"one encoding"
    public_key = curve.g2_mul(curve.G2, secret)
    sig = curve.g1_mul(backend.hash_to_base(message), secret)
    assert backend.pair_check(public_key, message, sig)
    assert not backend.pair_check(public_key, message, (sig[0] + p, sig[1]))


def test_final_exponentiation_matches_generic_power():
    p = curve.P
    easy = (p**6 - 1) * (p**2 + 1)
    hard = (p**4 - p**2 + 1) // curve.N
    for f in (curve.miller_loop([(curve.G1, curve.G2)]),
              curve.miller_loop([(curve.g1_mul(curve.G1, 5),
                                  curve.g2_mul(curve.G2, 7))])):
        expected = curve.f12_pow(curve.f12_pow(f, easy), hard)
        assert curve.final_exponentiation(f) == expected


def _schoolbook_f12_mul(a, b):
    """Reference product over the flat basis w^0..w^5 with w^6 = xi."""
    acc = [curve.F2_ZERO] * 11
    for i in range(6):
        for j in range(6):
            acc[i + j] = curve.f2_add(acc[i + j], curve.f2_mul(a[i], b[j]))
    for k in range(10, 5, -1):
        acc[k - 6] = curve.f2_add(acc[k - 6], curve.f2_mul_xi(acc[k]))
    return tuple(acc[:6])


def _random_f12(rng):
    return tuple((rng.randrange(curve.P), rng.randrange(curve.P))
                 for _ in range(6))


def _cyclotomic(f):
    """f^((p^6 - 1)(p^2 + 1)): the easy part of the final exponentiation."""
    t = curve.f12_mul(curve.f12_conj6(f), curve.f12_inv(f))
    return curve.f12_mul(curve.f12_frobenius(t, 2), t)


def test_tower_products_match_schoolbook():
    import random
    rng = random.Random(4)
    top = ((curve.P - 1, curve.P - 1),) * 6
    sparse = (curve.F2_ZERO, (3, 4), curve.F2_ZERO, (5, 0), curve.F2_ZERO, curve.F2_ZERO)
    elements = [top, sparse, curve.F12_ONE] + [_random_f12(rng) for _ in range(6)]
    for a in elements:
        assert curve.f12_sqr(a) == _schoolbook_f12_mul(a, a)
        for b in elements[:4]:
            assert curve.f12_mul(a, b) == _schoolbook_f12_mul(a, b)
            assert curve.f12_mul(b, a) == _schoolbook_f12_mul(a, b)


def test_cyclotomic_squaring_and_power_by_u():
    import random
    rng = random.Random(5)
    elements = [_cyclotomic(_random_f12(rng)) for _ in range(3)]
    elements.append(_cyclotomic(curve.miller_loop([(curve.G1, curve.G2)])))
    for t in elements:
        assert curve._cyc_sqr(t) == curve.f12_sqr(t)
        assert curve._cyc_pow_u(t) == curve.f12_pow(t, curve.U)


def test_frobenius_constants_derive_from_xi():
    p, xi = curve.P, curve.XI
    for k in (1, 2, 3):
        root = curve.f2_pow(xi, (p**k - 1) // 6)
        assert curve._FROB_GAMMA[k - 1] == tuple(curve.f2_pow(root, j) for j in range(6))
    assert curve._W1X == curve.f2_pow(xi, (p - 1) // 3)
    assert curve._W1Y == curve.f2_pow(xi, (p - 1) // 2)
    assert curve._W2X == curve.f2_pow(xi, (p**2 - 1) // 3)
    assert curve._W2Y == curve.f2_pow(xi, (p**2 - 1) // 2)


def test_naf_digits():
    for k in (1, 2, 3, 7, curve.U, curve.ATE_LOOP_COUNT, 2**64 - 1):
        for width in (2, 5):
            digits = ec.wnaf(k, width)
            assert sum(d << i for i, d in enumerate(reversed(digits))) == k
            nonzero = [i for i, d in enumerate(digits) if d]
            assert all(d % 2 and abs(d) < 2 ** (width - 1) for d in digits if d)
            assert all(b - a >= width for a, b in zip(nonzero, nonzero[1:]))
            assert digits[0] > 0


def test_field_tower():
    import random
    rng = random.Random(0)
    p = int(curve.P)
    for _ in range(5):
        a = (rng.randrange(p), rng.randrange(p))
        assert curve.f2_mul(a, curve.f2_inv(a)) == curve.F2_ONE
    x = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(6))
    assert curve.f12_mul(x, curve.f12_inv(x)) == curve.F12_ONE
    assert curve.f12_frobenius(x, 1) == curve.f12_pow(x, p)


def test_pairing_bilinear():
    e = curve.pairing(curve.G1, curve.G2)
    assert e != curve.F12_ONE  # non-degenerate
    a, b = 987654321987654321, 123456789123456789
    left = curve.pairing(curve.g1_mul(curve.G1, a), curve.g2_mul(curve.G2, b))
    right = curve.f12_pow(e, a * b % curve.N)
    assert left == right
    # the symmetric scaling relation
    assert curve.pairing(curve.g1_mul(curve.G1, a), curve.G2) \
        == curve.pairing(curve.G1, curve.g2_mul(curve.G2, a))


def test_pairing_value_pinned():
    # sha256 of e(G1, G2)'s coefficients (c0..c5, each real then
    # imaginary part, 32-byte big-endian), as computed by the affine
    # Miller loop and generic final exponentiation this kernel replaced
    e = curve.pairing(curve.G1, curve.G2)
    digest = hashlib.sha256(b"".join(
        v.to_bytes(32, "big") for coeff in e for v in coeff)).hexdigest()
    assert digest == "a0ffc0e668848ab9dc71bdd8266d647a346d814b9d2bcfc710c426ffdfd3922c"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multi_pair_miller_loop_matches_single_pairings(n):
    points = [(curve.g1_mul(curve.G1, 3 + k), curve.g2_mul(curve.G2, 11 + 2 * k))
              for k in range(n)]
    expected = curve.F12_ONE
    for p, q in points:
        expected = curve.f12_mul(expected, curve.pairing(p, q))
    # pairs holding the point at infinity contribute one
    pairs = points[:1] + [(None, curve.G2), (curve.G1, None)] + points[1:]
    assert curve.final_exponentiation(curve.miller_loop(pairs)) == expected
    assert curve.miller_loop([(None, curve.G2)]) == curve.F12_ONE


def test_pairing_product_check():
    k = 31337
    assert curve.pairing_check([
        (curve.g1_mul(curve.G1, k), curve.G2),
        (curve.g1_neg(curve.G1), curve.g2_mul(curve.G2, k)),
    ])
    assert not curve.pairing_check([
        (curve.g1_mul(curve.G1, k), curve.G2),
        (curve.g1_neg(curve.G1), curve.g2_mul(curve.G2, k + 1)),
    ])


def test_hash_to_g1():
    p1 = curve.hash_to_g1(b"hello")
    p2 = curve.hash_to_g1(b"hello")
    p3 = curve.hash_to_g1(b"world")
    assert p1 == p2
    assert p1 != p3
    assert curve.g1_on_curve(p1)
    assert curve.g1_on_curve(p3)
    # G1 has cofactor one: any curve point is in the group
    assert curve.g1_mul(p1, curve.N) is None


def _hash_to_g1_euler(message):
    """Reference: try-and-increment with an explicit Euler criterion."""
    p = curve.P
    seed = keccak256(message)
    for counter in range(256):
        digest = keccak256(seed + counter.to_bytes(4, "big"))
        x = int.from_bytes(digest, "big") % p
        rhs = (x * x % p * x + curve.B) % p
        if pow(rhs, (p - 1) // 2, p) == 1:
            y = pow(rhs, (p + 1) // 4, p)
            return (x, p - y if y & 1 else y)
    raise AssertionError("no point")


def test_hash_to_g1_matches_euler_criterion():
    for i in range(256):
        message = b"msg-%d" % i
        assert curve.hash_to_g1(message) == _hash_to_g1_euler(message)


def test_point_serialization():
    assert len(curve.g1_to_bytes(curve.G1)) == 64
    assert len(curve.g2_to_bytes(curve.G2)) == 128
    assert curve.g1_to_bytes(None) == b"\x00" * 64
