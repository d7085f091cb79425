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
    if Z == curve.zero:
        return None
    z_inv = curve.inv(Z)
    z_inv2 = curve.sqr(z_inv)
    return curve.mul(X, z_inv2), curve.mul(curve.mul(Y, z_inv2), z_inv)
