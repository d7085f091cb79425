"""One group law for the short-Weierstrass curves y^2 = x^3 + b (a = 0).

secp256k1 (b = 7, account signatures), BN254 G1 (b = 3) and the BN254
G2 twist (b = 3/xi over Fp2) are all such curves. A ``Curve`` holds only
constants: the field modulus p, b, the group order, the field's one and
the endomorphism if any. The formulas are written once in Python
operators, so a field element is anything that supports them: ``+``,
``-`` and ``*`` (also with a small int on the left), ``% p`` to reduce,
``pow(x, -1, p)`` to invert, ``==`` on the representation (so that
``x % p == x`` holds only for a reduced x), and truth for a nonzero
reduced element. Ints serve Fp (secp256k1, BN254 G1); bn254's private
``_Fp2`` class serves the twist. Points are affine (x, y) tuples; None
is the point at infinity.

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
    """Constants of one a = 0 curve: the field modulus p, b, the group
    order and the field's one, whose type sets that of every coordinate.

    ``endo`` is (beta, lam) where (beta * x, y) = lam * (x, y) on the
    whole group, or None; with it, ``basis`` holds two short vectors
    (a, b) with a + b * lam = 0 mod the order."""

    def __init__(self, p, b, order, one=1, endo=None):
        self.p, self.b, self.order, self.one = p, b, order, one
        self.endo = endo
        self.basis = None if endo is None else _glv_basis(order, endo[1])


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
    """pt is None or satisfies the curve equation with every coordinate
    reduced, so that each point has one encoding."""
    if pt is None:
        return True
    x, y = pt
    p = curve.p
    return x % p == x and y % p == y and not (y * y - x * x * x - curve.b) % p


def neg(curve: Curve, pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % curve.p)


def add(curve: Curve, p1, p2):
    """Affine p1 + p2: the mixed Jacobian addition from Z = 1, then one
    field inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return _to_affine(curve, *_jac_add_affine(curve, p1[0], p1[1], curve.one, *p2))


def _jac_double(curve: Curve, X1, Y1, Z1):
    """dbl-2009-l, with its D = 2((X1 + B)^2 - X1^2 - C) written as
    4 X1 B; a point at infinity or of order two doubles to Z3 == 0."""
    p = curve.p
    B = Y1 * Y1 % p
    C = B * B % p
    D = 4 * X1 * B % p
    E = 3 * (X1 * X1) % p
    X3 = (E * E - 2 * D) % p
    return X3, (E * (D - X3) - 8 * C) % p, 2 * Y1 * Z1 % p


def _jac_add_affine(curve: Curve, X1, Y1, Z1, x2, y2):
    """madd-2004-hmv: Jacobian (X1, Y1, Z1) plus the affine point (x2, y2).
    Preferred to madd-2007-bl for its fewer operator calls (no 2r, 4HH
    or 2 Z1 H): on Fp2 each call is a method dispatch."""
    if not Z1:
        return x2, y2, curve.one
    p = curve.p
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = (y2 * Z1 * Z1Z1 - Y1) % p
    if not H:
        if not r:
            return _jac_double(curve, X1, Y1, Z1)
        return curve.one, curve.one, H  # H is the field's zero: infinity
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    return X3, (r * (V - X3) - Y1 * HHH) % p, Z1 * H % p


def _to_affine(curve: Curve, X, Y, Z):
    if not Z:
        return None
    p = curve.p
    z_inv = pow(Z, -1, p)
    z_inv2 = z_inv * z_inv % p
    return X * z_inv2 % p, Y * z_inv2 * z_inv % p


def _batch_to_affine(curve: Curve, points):
    """Jacobian points, none at infinity, to affine with one inversion in
    all (Montgomery's trick)."""
    p = curve.p
    prefix = []
    acc = curve.one
    for _, _, Z in points:
        prefix.append(acc)
        acc = acc * Z % p
    acc_inv = pow(acc, -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        z_inv = acc_inv * prefix[i] % p
        acc_inv = acc_inv * Z % p
        z_inv2 = z_inv * z_inv % p
        out[i] = (X * z_inv2 % p, Y * z_inv2 * z_inv % p)
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
    it): one doubling between steps, none while the sum is at infinity.
    The sum starts there with Z the int 0, which is false as either
    field's zero is."""
    double, add_affine = _jac_double, _jac_add_affine
    X, Y, Z = curve.one, curve.one, 0
    for points in steps:
        if Z:
            X, Y, Z = double(curve, X, Y, Z)
        for x2, y2 in points:
            X, Y, Z = add_affine(curve, X, Y, Z, x2, y2)
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
    p = curve.p
    if curve.endo is not None:
        beta = curve.endo[0]
        tables.append([(beta * x % p, y) for x, y in table])
    nafs = [wnaf(abs(h), width) for h in halves]
    steps = [[] for _ in range(max(map(len, nafs)))]
    for half, digits, table in zip(halves, nafs, tables):
        flip = half < 0
        for i, d in enumerate(digits, len(steps) - len(digits)):
            if d:
                x, y = table[abs(d) >> 1]
                steps[i].append((x, -y % p) if (d < 0) != flip else (x, y))
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
