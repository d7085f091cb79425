"""One group law for the short-Weierstrass curves y^2 = x^3 + b (a = 0).

secp256k1 (b = 7, account signatures), BN254 G1 (b = 3) and the BN254
G2 twist (b = 3/xi over Fp2) are all such curves. A ``Curve`` is a table
of the field's operations plus b and the group order, so the same code
serves all three. Points are affine (x, y) tuples; None is the point at
infinity.

Scalar multiplication runs in Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3),
Z == 0 being the point at infinity, so that it needs one inversion in
all instead of one per group operation. Formulas for a = 0 from the
Explicit-Formulas Database (hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-0).
They are the only group law: ``add`` is one mixed addition from Z = 1
and one inversion back to affine.

Every multiplication is one interleaved pass (Straus): a schedule lists
the affine points to add at each step, and the accumulator doubles once
between steps. A variable point contributes the width-w NAF of its
scalar over its odd multiples, w taken from the scalar's bit length, so
a short scalar such as a Horner index 1..n pays for no table.

secp256k1 and BN254 G1 are j = 0 curves of prime order n with a cube
root of unity beta mod p, so phi(x, y) = (beta * x, y) is an
endomorphism that acts on the group as a scalar lam, a cube root of
unity mod n (Gallant-Lambert-Vanstone, CRYPTO 2001). Such a ``Curve``
carries (beta, lam), derives a short basis of the lattice
{(a, b) : a + b * lam = 0 mod n} once (GLV section 4, extended Euclid on
n and lam), and splits k into k1 + k2 * lam with |k1|, |k2| about
sqrt(n). The pass then runs over ~128 steps instead of ~256: k1's digits
add odd multiples of P and k2's the same multiples under phi, which
cost one field multiplication each. A negative half flips the sign of
its digits. G2 has no such parameters here and keeps one wNAF term.

A fixed point such as a generator G can carry a comb table
(``FixedBase``, Lim-Lee, CRYPTO 1994). A scalar's bits are cut into 8
rows of ``spacing`` bits (32 for a 256-bit order), and the table holds
the 255 affine sums of the rows' base points 2^(i * spacing) * G, so
``fixed_mul`` takes 32 doublings and at most 32 mixed additions. The
table is built on first use, in Jacobian coordinates and then
normalized with a single batch inversion (~5 ms for secp256k1), so
declaring one at import costs nothing. ``joint_mul`` computes
a * G + b * R, as ECDSA recovery needs, in one pass: the comb columns
of a join the schedule of b * R in its last ``spacing`` steps, so a
costs additions only.

Pure python, not constant time: simulation grade.
"""


class Curve:
    """Field operation table and constants of one a = 0 curve.

    ``endo`` is (beta, lam) where (beta * x, y) = lam * (x, y) on the
    whole group, or None; with it, ``basis`` holds two short vectors
    (a, b) with a + b * lam = 0 mod the order."""

    def __init__(self, add, sub, mul, sqr, inv, neg, scale_int, zero, one, b, order,
                 endo=None):
        self.add, self.sub, self.mul, self.sqr = add, sub, mul, sqr
        self.inv, self.neg, self.scale_int = inv, neg, scale_int
        self.zero, self.one, self.b, self.order = zero, one, b, order
        self.endo = endo
        self.basis = None if endo is None else _glv_basis(order, endo[1])


def prime_curve(p: int, b: int, order: int, endo=None) -> Curve:
    """y^2 = x^3 + b over the prime field F_p, with a group of this order."""
    return Curve(
        add=lambda x, y: (x + y) % p,
        sub=lambda x, y: (x - y) % p,
        mul=lambda x, y: x * y % p,
        sqr=lambda x: x * x % p,
        inv=lambda x: pow(x, -1, p),
        neg=lambda x: (-x) % p,
        scale_int=lambda x, k: x * k % p,
        zero=0, one=1, b=b, order=order, endo=endo,
    )


def _glv_basis(n: int, lam: int):
    """Two short vectors (a1, b1), (a2, b2) of the lattice
    {(a, b) : a + b * lam = 0 mod n}, of determinant n (GLV section 4).

    The extended Euclidean algorithm on n and lam keeps r = s * n + t * lam,
    so each (r, -t) lies in the lattice; v1 is the first with r < sqrt(n)
    and v2 the shorter of its two neighbours."""
    r0, r1, t0, t1 = n, lam, 0, 1
    while r1 * r1 >= n:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    v1 = (r1, -t1)
    v2 = (r0, -t0) if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2 else (r2, -t2)
    if v1[0] * v2[1] - v2[0] * v1[1] < 0:
        v1, v2 = v2, v1
    return v1, v2


def _split(curve: Curve, k: int):
    """(k1, k2) with k1 + k2 * lam = k mod n and both about sqrt(n) in
    absolute value: (k, 0) less the lattice vector nearest to it."""
    (a1, b1), (a2, b2) = curve.basis
    n2 = 2 * curve.order  # the basis determinant, doubled for rounding
    c1 = (2 * b2 * k + curve.order) // n2
    c2 = (-2 * b1 * k + curve.order) // n2
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def on_curve(curve: Curve, pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return curve.sqr(y) == curve.add(curve.mul(curve.sqr(x), x), curve.b)


def neg(curve: Curve, pt):
    if pt is None:
        return None
    return (pt[0], curve.neg(pt[1]))


def add(curve: Curve, p1, p2):
    """Affine p1 + p2: the mixed Jacobian addition from Z = 1, then one
    field inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return _to_affine(curve, *_jac_add_affine(curve, p1[0], p1[1], curve.one, *p2))


def _jac_double(curve: Curve, X1, Y1, Z1):
    """dbl-2009-l; a point at infinity or of order two doubles to Z3 == 0."""
    add, sub, sqr, scale = curve.add, curve.sub, curve.sqr, curve.scale_int
    A = sqr(X1)
    B = sqr(Y1)
    C = sqr(B)
    D = sub(sub(sqr(add(X1, B)), A), C)
    D = add(D, D)
    E = scale(A, 3)
    X3 = sub(sub(sqr(E), D), D)
    Y3 = sub(curve.mul(E, sub(D, X3)), scale(C, 8))
    Z3 = curve.mul(add(Y1, Y1), Z1)
    return X3, Y3, Z3


def _jac_add_affine(curve: Curve, X1, Y1, Z1, x2, y2):
    """madd-2007-bl: Jacobian (X1, Y1, Z1) plus the affine point (x2, y2)."""
    if Z1 == curve.zero:
        return x2, y2, curve.one
    add, sub, mul, sqr = curve.add, curve.sub, curve.mul, curve.sqr
    Z1Z1 = sqr(Z1)
    H = sub(mul(x2, Z1Z1), X1)
    r = sub(mul(y2, mul(Z1, Z1Z1)), Y1)
    if H == curve.zero:
        if r == curve.zero:
            return _jac_double(curve, X1, Y1, Z1)
        return curve.one, curve.one, curve.zero
    r = add(r, r)
    HH = sqr(H)
    I = curve.scale_int(HH, 4)
    J = mul(H, I)
    V = mul(X1, I)
    X3 = sub(sub(sub(sqr(r), J), V), V)
    Y1J = mul(Y1, J)
    Y3 = sub(sub(mul(r, sub(V, X3)), Y1J), Y1J)
    Z3 = sub(sub(sqr(add(Z1, H)), Z1Z1), HH)
    return X3, Y3, Z3


def _to_affine(curve: Curve, X, Y, Z):
    if Z == curve.zero:
        return None
    z_inv = curve.inv(Z)
    z_inv2 = curve.sqr(z_inv)
    return curve.mul(X, z_inv2), curve.mul(curve.mul(Y, z_inv2), z_inv)


def _batch_to_affine(curve: Curve, points):
    """Jacobian points, none at infinity, to affine with one inversion in
    all (Montgomery's trick)."""
    mul = curve.mul
    prefix = []
    acc = curve.one
    for _, _, Z in points:
        prefix.append(acc)
        acc = mul(acc, Z)
    acc_inv = curve.inv(acc)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        z_inv = mul(acc_inv, prefix[i])
        acc_inv = mul(acc_inv, Z)
        z_inv2 = curve.sqr(z_inv)
        out[i] = (mul(X, z_inv2), mul(mul(Y, z_inv2), z_inv))
    return out


def wnaf(k: int, width: int):
    """Width-w non-adjacent form of k >= 0, most significant digit first:
    each nonzero digit is odd and below 2^(w-1) in absolute value, and
    any two nonzero digits are at least w apart."""
    full = 1 << width
    half = full >> 1
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & (full - 1)
            if d >= half:
                d -= full
            k -= d
        digits.append(d)
        k >>= 1
    return digits[::-1]


_COMB_TEETH = 8


class FixedBase:
    """A fixed point of prime order ``curve.order`` and its comb table.

    table[j], 0 < j < 2^8, is the affine sum of 2^(i * spacing) * point
    over the bits i set in j; ``comb`` builds it on first use."""

    def __init__(self, curve: Curve, point):
        self.curve, self.point = curve, point
        self.spacing = -(-curve.order.bit_length() // _COMB_TEETH)
        self.table = None

    def columns(self, k: int):
        """The table index of each of k's comb columns, top column first:
        column c holds bit c of each of the 8 rows of ``spacing`` bits."""
        d = self.spacing
        bits = format(k, "0%db" % (_COMB_TEETH * d))
        return [int(bits[j::d], 2) for j in range(d)]

    def comb(self):
        if self.table is None:
            curve = self.curve
            x, y = self.point
            rows = [(x, y, curve.one)]
            for _ in range(_COMB_TEETH - 1):
                X, Y, Z = rows[-1]
                for _ in range(self.spacing):
                    X, Y, Z = _jac_double(curve, X, Y, Z)
                rows.append((X, Y, Z))
            rows = _batch_to_affine(curve, rows)
            sums = [None]
            for j in range(1, 1 << _COMB_TEETH):
                low = j & -j
                x2, y2 = rows[low.bit_length() - 1]
                if j == low:
                    sums.append((x2, y2, curve.one))
                else:
                    sums.append(_jac_add_affine(curve, *sums[j ^ low], x2, y2))
            self.table = [None] + _batch_to_affine(curve, sums[1:])
        return self.table


def fixed_mul(base: FixedBase, k: int):
    """k * base.point, k taken modulo the order, from the comb table: one
    doubling and at most one mixed addition per column."""
    k %= base.curve.order
    if not k:
        return None
    table = base.comb()
    steps = [[table[idx]] if idx else [] for idx in base.columns(k)]
    return _to_affine(base.curve, *_run(base.curve, steps))


def mul(curve: Curve, pt, k: int):
    """k * pt, k taken modulo the order; pt must lie in the group of
    order ``curve.order`` when the curve has an endomorphism."""
    k %= curve.order
    if pt is None or not k:
        return None
    return _to_affine(curve, *_run(curve, _schedule(curve, pt, k)))


def joint_mul(base: FixedBase, a: int, pt, b: int):
    """a * base.point + b * pt, a and b taken modulo the order, in one pass
    of doublings; pt must lie in the group of order ``curve.order``.

    Column c of a's comb is added with c doublings still to come, so it
    counts 2^c times, as in ``fixed_mul``."""
    curve = base.curve
    b %= curve.order
    if pt is None or not b:
        return fixed_mul(base, a)
    steps = _schedule(curve, pt, b)
    columns = base.columns(a % curve.order)
    steps[:0] = [[] for _ in range(len(columns) - len(steps))]
    table = base.comb()
    for points, idx in zip(steps[len(steps) - len(columns):], columns):
        if idx:
            points.append(table[idx])
    return _to_affine(curve, *_run(curve, steps))


def _run(curve: Curve, steps):
    """The Jacobian sum of each step's affine points times 2^(steps after
    it): one doubling between steps, none while the sum is at infinity."""
    zero = curve.zero
    X, Y, Z = curve.one, curve.one, zero
    for points in steps:
        if Z != zero:
            X, Y, Z = _jac_double(curve, X, Y, Z)
        for x2, y2 in points:
            X, Y, Z = _jac_add_affine(curve, X, Y, Z, x2, y2)
    return X, Y, Z


def _width(bits: int) -> int:
    """Window width for a scalar (or GLV half) of this many bits. A table
    of 2^(w-2) odd multiples costs one doubling, 2^(w-2) - 1 mixed
    additions and two inversions (an inversion costs about three mixed
    additions); against width w - 1 it saves bits/(w*(w+1)) additions
    per scalar. Up to 64 bits, as for the Horner indices of commitment
    evaluation, the point itself is the whole table."""
    return 2 if bits <= 64 else 4 if bits <= 100 else 5


def _schedule(curve: Curve, pt, k: int):
    """The affine points k * pt adds at each doubling step, top step
    first, for 0 < k < order: the width-w NAF of k over pt's odd
    multiples or, on a curve with an endomorphism, the NAFs of k's two
    halves over the odd multiples of pt and of phi(pt)."""
    halves = (k,) if curve.endo is None else _split(curve, k)
    width = _width(max(abs(h).bit_length() for h in halves))
    table = _odd_multiples(curve, pt, 1 << (width - 2))
    tables = [table]
    if curve.endo is not None:
        beta = curve.endo[0]
        tables.append([(curve.mul(beta, x), y) for x, y in table])
    nafs = [wnaf(abs(h), width) for h in halves]
    steps = [[] for _ in range(max(map(len, nafs)))]
    neg = curve.neg
    for half, digits, table in zip(halves, nafs, tables):
        flip = half < 0
        for i, d in enumerate(digits, len(steps) - len(digits)):
            if d:
                x, y = table[abs(d) >> 1]
                steps[i].append((x, neg(y)) if (d < 0) != flip else (x, y))
    return steps


def _odd_multiples(curve: Curve, pt, count: int):
    """pt, 3 pt, 5 pt, ...: count affine points, with two inversions
    (none for pt alone)."""
    if count == 1:
        return [pt]
    x, y = pt
    twice = _to_affine(curve, *_jac_double(curve, x, y, curve.one))
    points = [(x, y, curve.one)]
    for _ in range(count - 1):
        points.append(_jac_add_affine(curve, *points[-1], *twice))
    return _batch_to_affine(curve, points)
