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

A fixed point such as a generator G can carry a comb table
(``FixedBase``, Lim-Lee, CRYPTO 1994). A scalar's bits are cut into 8
rows of ``spacing`` bits (32 for a 256-bit order), and the table holds
the 255 affine sums of the rows' base points 2^(i * spacing) * G, so
``fixed_mul`` takes 32 doublings and at most 32 mixed additions where
``mul`` takes 255 and about 128. The table is built on first use, in
Jacobian coordinates and then normalized with a single batch inversion
(~5 ms for secp256k1), so declaring one at import costs nothing.
``joint_mul`` computes a * G + b * R, as ECDSA recovery needs, in one
pass of doublings (Straus's interleaving): b's width-5 NAF adds odd
multiples of R, and the comb columns of a join in the last ``spacing``
steps, so a costs additions only.

Pure python, not constant time: simulation grade.
"""


class Curve:
    """Field operation table and constants of one a = 0 curve."""

    def __init__(self, add, sub, mul, sqr, inv, neg, scale_int, zero, one, b, order):
        self.add, self.sub, self.mul, self.sqr = add, sub, mul, sqr
        self.inv, self.neg, self.scale_int = inv, neg, scale_int
        self.zero, self.one, self.b, self.order = zero, one, b, order


def prime_curve(p: int, b: int, order: int) -> Curve:
    """y^2 = x^3 + b over the prime field F_p, with a group of this order."""
    return Curve(
        add=lambda x, y: (x + y) % p,
        sub=lambda x, y: (x - y) % p,
        mul=lambda x, y: x * y % p,
        sqr=lambda x: x * x % p,
        inv=lambda x: pow(x, -1, p),
        neg=lambda x: (-x) % p,
        scale_int=lambda x, k: x * k % p,
        zero=0, one=1, b=b, order=order,
    )


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
    """Affine addition; one field inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 != y2 or y1 == curve.zero:
            return None
        lam = curve.mul(curve.scale_int(curve.sqr(x1), 3),
                        curve.inv(curve.scale_int(y1, 2)))
    else:
        lam = curve.mul(curve.sub(y2, y1), curve.inv(curve.sub(x2, x1)))
    x3 = curve.sub(curve.sub(curve.sqr(lam), x1), x2)
    y3 = curve.sub(curve.mul(lam, curve.sub(x1, x3)), y1)
    return (x3, y3)


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


def mul(curve: Curve, pt, k: int):
    """k * pt by left-to-right double-and-add, k taken modulo the order."""
    k %= curve.order
    if pt is None or not k:
        return None
    x, y = pt
    X, Y, Z = x, y, curve.one
    for bit in bin(k)[3:]:
        X, Y, Z = _jac_double(curve, X, Y, Z)
        if bit == "1":
            X, Y, Z = _jac_add_affine(curve, X, Y, Z, x, y)
    return _to_affine(curve, X, Y, Z)


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
    curve = base.curve
    k %= curve.order
    if not k:
        return None
    table = base.comb()
    X, Y, Z = curve.one, curve.one, curve.zero
    for idx in base.columns(k):
        X, Y, Z = _jac_double(curve, X, Y, Z)
        if idx:
            X, Y, Z = _jac_add_affine(curve, X, Y, Z, *table[idx])
    return _to_affine(curve, X, Y, Z)


_JOINT_WIDTH = 5


def _odd_multiples(curve: Curve, pt, count: int):
    """pt, 3 pt, 5 pt, ...: count affine points, with two inversions."""
    x, y = pt
    twice = _to_affine(curve, *_jac_double(curve, x, y, curve.one))
    points = [(x, y, curve.one)]
    for _ in range(count - 1):
        points.append(_jac_add_affine(curve, *points[-1], *twice))
    return _batch_to_affine(curve, points)


def joint_mul(base: FixedBase, a: int, pt, b: int):
    """a * base.point + b * pt, a and b taken modulo the order, in one pass
    of doublings; pt must lie in the group of order ``curve.order``.

    b's width-5 NAF adds odd multiples of pt as the pass goes; column c
    of a's comb is added with c doublings still to come, so it counts
    2^c times, as in ``fixed_mul``."""
    curve = base.curve
    b %= curve.order
    if pt is None or not b:
        return fixed_mul(base, a)
    a %= curve.order
    table = base.comb()
    multiples = {}
    for i, (x, y) in enumerate(_odd_multiples(curve, pt, 1 << (_JOINT_WIDTH - 2))):
        multiples[2 * i + 1] = (x, y)
        multiples[-2 * i - 1] = (x, curve.neg(y))
    digits = wnaf(b, _JOINT_WIDTH)
    columns = base.columns(a)
    n = max(len(digits), len(columns))
    digits = [0] * (n - len(digits)) + digits
    columns = [0] * (n - len(columns)) + columns
    X, Y, Z = curve.one, curve.one, curve.zero
    for digit, idx in zip(digits, columns):
        X, Y, Z = _jac_double(curve, X, Y, Z)
        if digit:
            X, Y, Z = _jac_add_affine(curve, X, Y, Z, *multiples[digit])
        if idx:
            X, Y, Z = _jac_add_affine(curve, X, Y, Z, *table[idx])
    return _to_affine(curve, X, Y, Z)
