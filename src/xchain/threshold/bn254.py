"""alt-bn128 (BN254) curve arithmetic and the optimal ate pairing.

Everything is derived from the single BN parameter ``U``:

    p = 36u^4 + 36u^3 + 24u^2 + 6u + 1      (base field)
    n = 36u^4 + 36u^3 + 18u^2 + 6u + 1      (group order)

G1 is y^2 = x^3 + 3 over Fp with generator (1, 2). G2 lives on the
sextic twist y^2 = x^3 + 3/xi over Fp2 with xi = 9 + i. G1 and G2 share
the a = 0 group law of ``xchain.ec`` with secp256k1: on G1 it runs on
ints, on G2 on the private ``_Fp2`` class, to which the g2_* functions
convert their tuple points and back. Multiples of the generator G2 (key
commitments) read its comb table there. G1 carries the
endomorphism (beta*x, y) = lam*(x, y), so ``g1_mul`` splits its scalar
into two ~127-bit halves (GLV); G2 keeps one wNAF term.

Fp12 is stored flat as six Fp2 coefficients over w with w^6 = xi, and
multiplied over the tower Fp6 = Fp2[v]/(v^3 - xi), Fp12 = Fp6[w]/(w^2 - v):
Karatsuba products (18 Fp2 products) and complex squarings (12), with
the Fp6 products reduced mod p only once per output coefficient.

``miller_loop`` runs one optimal ate loop over all pairs of a product,
sharing each step's Fp12 squaring. Twist points stay in homogeneous
projective coordinates, so no step inverts; each doubling or addition
step returns its line, untwisted by (x, y) -> (x*w^2, y*w^3) and
evaluated at the G1 point, as the three coefficients of w^0, w^1 and
w^3 (Costello-Lange-Naehrig, PKC 2010). The final exponentiation's hard
part works in the cyclotomic subgroup, where it squares with
Granger-Scott squaring (PKC 2010) and inverts by conjugation, which lets
it raise to u along u's non-adjacent form.

Pure python, not constant time: simulation grade, not production
signing code.
"""

from .. import ec

U = 4965661367192848881
P = 36 * U**4 + 36 * U**3 + 24 * U**2 + 6 * U + 1
N = 36 * U**4 + 36 * U**3 + 18 * U**2 + 6 * U + 1

assert P % 6 == 1 and P % 4 == 3
assert (P**4 - P**2 + 1) % N == 0

B = 3

G1 = (1, 2)

# Canonical generator of the order-n subgroup of the twist (the same
# point the EVM precompiles use); validated by tests via on-curve and
# order checks.
G2 = (
    (10857046999023057135944570762232829481370756359578518086990519993285655852781,
     11559732032986387107991004021392285783925812861821192530917403151452391805634),
    (8495653923123431417604973247489272438418190587263600148770280649306958101930,
     4082367875863433681332203403145435568316851327593401208105741076214120093531),
)


def _inv(a):
    return pow(a, -1, P)


# ---------------------------------------------------------------------------
# Fp2 = Fp[i] / (i^2 + 1), elements as (a0, a1) = a0 + a1*i
# ---------------------------------------------------------------------------

F2_ZERO = (0, 0)
F2_ONE = (1, 0)
XI = (9, 1)


def f2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def f2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def f2_neg(a):
    return ((-a[0]) % P, (-a[1]) % P)


def f2_mul(a, b):
    t0 = a[0] * b[0]
    t1 = a[1] * b[1]
    return ((t0 - t1) % P, ((a[0] + a[1]) * (b[0] + b[1]) - t0 - t1) % P)


def f2_sqr(a):
    return ((a[0] + a[1]) * (a[0] - a[1]) % P, 2 * a[0] * a[1] % P)


def f2_scale(a, k):
    return (a[0] * k % P, a[1] * k % P)


def f2_conj(a):
    return (a[0], (-a[1]) % P)


def f2_inv(a):
    d = _inv((a[0] * a[0] + a[1] * a[1]) % P)
    return (a[0] * d % P, (-a[1] * d) % P)


def f2_mul_xi(a):
    # (9 + i) * (a0 + a1 i) = (9a0 - a1) + (9a1 + a0) i
    return ((9 * a[0] - a[1]) % P, (9 * a[1] + a[0]) % P)


def f2_pow(a, e):
    result = F2_ONE
    base = a
    while e:
        if e & 1:
            result = f2_mul(result, base)
        base = f2_sqr(base)
        e >>= 1
    return result


B2 = f2_mul((B, 0), f2_inv(XI))  # twist constant 3/(9+i)


# ---------------------------------------------------------------------------
# G1 (field Fp) and G2 (field Fp2 on the twist) on the shared a = 0 law.
# ---------------------------------------------------------------------------

# phi(x, y) = (beta * x, y) = lam * (x, y) on G1: beta^3 = 1 mod p,
# lam^3 = 1 mod n
_BETA = 0x59E26BCEA0D48BACD4F263F1ACDB5C4F5763473177FFFFFE
_LAMBDA = 0xB3C4D79D41A917585BFC41088D8DAAA78B17EA66B99C90DD
_F1 = ec.Curve(P, B, N, endo=(_BETA, _LAMBDA))


class _Fp2:
    """An Fp2 element a + b*i in the operator form of ``ec``'s group law:
    + - * leave the coefficients unreduced, % P reduces them, pow(x, -1, P)
    inverts a reduced element, truth means a nonzero reduced element and
    == compares coefficients. An int on the left of * scales. Only ``ec``
    sees these: the g2_* functions take and return tuples."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Fp2(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _Fp2(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return _Fp2(-self.a, -self.b)

    def __mul__(self, other):
        a, b = self.a, self.b
        if other is self:  # two products, not four
            return _Fp2((a + b) * (a - b), 2 * a * b)
        c, d = other.a, other.b
        return _Fp2(a * c - b * d, a * d + b * c)

    def __rmul__(self, k):
        return _Fp2(k * self.a, k * self.b)

    def __mod__(self, p):
        return _Fp2(self.a % p, self.b % p)

    def __pow__(self, e, p):
        if e != -1:
            return NotImplemented
        a, b = self.a, self.b
        d = pow(a * a + b * b, -1, p)
        return _Fp2(a * d % p, -b * d % p)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


_F2 = ec.Curve(P, _Fp2(*B2), N, one=_Fp2(1, 0))


def _to_f2(pt):
    """A twist point's tuple coordinates as ``_Fp2`` elements."""
    if pt is None:
        return None
    return _Fp2(*pt[0]), _Fp2(*pt[1])


def _from_f2(pt):
    if pt is None:
        return None
    x, y = pt
    return (x.a, x.b), (y.a, y.b)


_G2_BASE = ec.FixedBase(_F2, _to_f2(G2))


def g1_add(p1, p2):
    return ec.add(_F1, p1, p2)


def g1_mul(pt, k):
    return ec.mul(_F1, pt, k)


def g1_neg(pt):
    return ec.neg(_F1, pt)


def g1_on_curve(pt):
    return ec.on_curve(_F1, pt)


def g2_add(p1, p2):
    return _from_f2(ec.add(_F2, _to_f2(p1), _to_f2(p2)))


def g2_mul(pt, k):
    """k * pt; multiples of G2 read its comb table, built on first use."""
    if pt == G2:
        return _from_f2(ec.fixed_mul(_G2_BASE, k))
    return _from_f2(ec.mul(_F2, _to_f2(pt), k))


def g2_neg(pt):
    return _from_f2(ec.neg(_F2, _to_f2(pt)))


def g2_on_curve(pt):
    return ec.on_curve(_F2, _to_f2(pt))


def g1_to_bytes(pt) -> bytes:
    if pt is None:
        return b"\x00" * 64
    return pt[0].to_bytes(32, "big") + pt[1].to_bytes(32, "big")


def g2_to_bytes(pt) -> bytes:
    if pt is None:
        return b"\x00" * 128
    (x0, x1), (y0, y1) = pt
    return b"".join(v.to_bytes(32, "big") for v in (x0, x1, y0, y1))


# ---------------------------------------------------------------------------
# Fp12 over the tower Fp6 = Fp2[v]/(v^3 - xi), Fp12 = Fp6[w]/(w^2 - v).
# Elements are stored flat, f = sum(c[j] * w^j) with w^6 = xi; the Fp6
# halves of f = d0 + d1*w are d0 = (c0, c2, c4) and d1 = (c1, c3, c5).
# ---------------------------------------------------------------------------

F12_ONE = (F2_ONE, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO)


def _f6_mul(a, b):
    """Karatsuba over Fp6: six Fp2 products of three integer products each.
    Intermediate sums stay unreduced; only the six output integers are
    reduced mod P."""
    (x0, y0), (x1, y1), (x2, y2) = a
    (u0, v0), (u1, v1), (u2, v2) = b
    # t_k = a_k * b_k
    m, n = x0 * u0, y0 * v0
    t0r, t0i = m - n, (x0 + y0) * (u0 + v0) - m - n
    m, n = x1 * u1, y1 * v1
    t1r, t1i = m - n, (x1 + y1) * (u1 + v1) - m - n
    m, n = x2 * u2, y2 * v2
    t2r, t2i = m - n, (x2 + y2) * (u2 + v2) - m - n
    # (a1 + a2)(b1 + b2) - t1 - t2, multiplied by xi into c0
    x, y, u, v = x1 + x2, y1 + y2, u1 + u2, v1 + v2
    m, n = x * u, y * v
    sr, si = m - n - t1r - t2r, (x + y) * (u + v) - m - n - t1i - t2i
    c0 = ((t0r + 9 * sr - si) % P, (t0i + sr + 9 * si) % P)
    # (a0 + a1)(b0 + b1) - t0 - t1 + xi * t2
    x, y, u, v = x0 + x1, y0 + y1, u0 + u1, v0 + v1
    m, n = x * u, y * v
    c1 = ((m - n - t0r - t1r + 9 * t2r - t2i) % P,
          ((x + y) * (u + v) - m - n - t0i - t1i + t2r + 9 * t2i) % P)
    # (a0 + a2)(b0 + b2) - t0 - t2 + t1
    x, y, u, v = x0 + x2, y0 + y2, u0 + u2, v0 + v2
    m, n = x * u, y * v
    c2 = ((m - n - t0r - t2r + t1r) % P,
          ((x + y) * (u + v) - m - n - t0i - t2i + t1i) % P)
    return (c0, c1, c2)


def _f6_add(a, b):
    return (f2_add(a[0], b[0]), f2_add(a[1], b[1]), f2_add(a[2], b[2]))


def _f6_sub(a, b):
    return (f2_sub(a[0], b[0]), f2_sub(a[1], b[1]), f2_sub(a[2], b[2]))


def _f6_neg(a):
    return (f2_neg(a[0]), f2_neg(a[1]), f2_neg(a[2]))


def _f6_mul_v(a):
    return (f2_mul_xi(a[2]), a[0], a[1])


def _f6_inv(a):
    c0 = f2_sub(f2_sqr(a[0]), f2_mul_xi(f2_mul(a[1], a[2])))
    c1 = f2_sub(f2_mul_xi(f2_sqr(a[2])), f2_mul(a[0], a[1]))
    c2 = f2_sub(f2_sqr(a[1]), f2_mul(a[0], a[2]))
    t = f2_add(f2_mul(a[0], c0),
               f2_mul_xi(f2_add(f2_mul(a[2], c1), f2_mul(a[1], c2))))
    t_inv = f2_inv(t)
    return (f2_mul(c0, t_inv), f2_mul(c1, t_inv), f2_mul(c2, t_inv))


def f12_mul(a, b):
    # Karatsuba over Fp6: three Fp6 products (18 Fp2 products)
    a0, a1 = (a[0], a[2], a[4]), (a[1], a[3], a[5])
    b0, b1 = (b[0], b[2], b[4]), (b[1], b[3], b[5])
    t0 = _f6_mul(a0, b0)
    t1 = _f6_mul(a1, b1)
    c1 = _f6_sub(_f6_mul(_f6_add(a0, a1), _f6_add(b0, b1)), _f6_add(t0, t1))
    c0 = _f6_add(t0, _f6_mul_v(t1))
    return (c0[0], c1[0], c0[1], c1[1], c0[2], c1[2])


def f12_sqr(a):
    # complex method over Fp6, with t = a0*a1 and w^2 = v:
    # (a0 + a1 w)^2 = (a0 + a1)(a0 + v a1) - t - v t + 2t w,
    # two Fp6 products (12 Fp2 products)
    a0, a1 = (a[0], a[2], a[4]), (a[1], a[3], a[5])
    t = _f6_mul(a0, a1)
    c0 = _f6_sub(_f6_mul(_f6_add(a0, a1), _f6_add(a0, _f6_mul_v(a1))),
                 _f6_add(t, _f6_mul_v(t)))
    c1 = _f6_add(t, t)
    return (c0[0], c1[0], c0[1], c1[1], c0[2], c1[2])


def f12_conj6(a):
    """a^(p^6): w -> -w, i.e. negate odd coefficients."""
    return (a[0], f2_neg(a[1]), a[2], f2_neg(a[3]), a[4], f2_neg(a[5]))


def f12_inv(a):
    # (d0 + w d1)^-1 = (d0 - w d1) / (d0^2 - v d1^2)
    d0 = (a[0], a[2], a[4])
    d1 = (a[1], a[3], a[5])
    t = _f6_sub(_f6_mul(d0, d0), _f6_mul_v(_f6_mul(d1, d1)))
    t_inv = _f6_inv(t)
    e0 = _f6_mul(d0, t_inv)
    e1 = _f6_neg(_f6_mul(d1, t_inv))
    return (e0[0], e1[0], e0[1], e1[1], e0[2], e1[2])


def f12_pow(a, e):
    result = F12_ONE
    base = a
    while e:
        if e & 1:
            result = f12_mul(result, base)
        base = f12_sqr(base)
        e >>= 1
    return result


# Frobenius constants gamma[k][j] = xi^(j*(p^k - 1)/6) for k = 1, 2, 3,
# as powers of xi^((p^k - 1)/6); tests derive these roots with f2_pow.
_FROB_ROOTS = (
    (8376118865763821496583973867626364092589906065868298776909617916018768340080,
     16469823323077808223889137241176536799009286646108169935659301613961712198316),
    (21888242871839275220042445260109153167277707414472061641714758635765020556617, 0),
    (11697423496358154304825782922584725312912383441159505038794027105778954184319,
     303847389135065887422783454877609941456349188919719272345083954437860409601),
)
_FROB_GAMMA = []
for _g in _FROB_ROOTS:
    _row = [F2_ONE]
    for _j in range(1, 6):
        _row.append(f2_mul(_row[-1], _g))
    _FROB_GAMMA.append(tuple(_row))


def f12_frobenius(a, k=1):
    """a^(p^k) for k in {1, 2, 3}."""
    gamma = _FROB_GAMMA[k - 1]
    conj = (k % 2) == 1
    out = []
    for j in range(6):
        c = f2_conj(a[j]) if conj else a[j]
        out.append(f2_mul(c, gamma[j]))
    return tuple(out)


# ---------------------------------------------------------------------------
# The cyclotomic subgroup: elements f with f^(p^6 + 1) = 1, where every
# value of the final exponentiation's hard part lies.
# ---------------------------------------------------------------------------

def _f4_sqr(x, y):
    """(x + y s)^2 = (x^2 + xi y^2) + 2xy s in Fp4 = Fp2[s]/(s^2 - xi), from
    three Fp2 squarings; returns the four integers unreduced."""
    # (a + b i)^2 = (a + b)(a - b) + 2ab i
    x0, x1 = x
    y0, y1 = y
    xx0, xx1 = (x0 + x1) * (x0 - x1), 2 * x0 * x1
    yy0, yy1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
    s0, s1 = x0 + y0, x1 + y1
    ss0, ss1 = (s0 + s1) * (s0 - s1), 2 * s0 * s1
    return (xx0 + 9 * yy0 - yy1, xx1 + yy0 + 9 * yy1,
            ss0 - xx0 - yy0, ss1 - xx1 - yy1)


def _cyc_sqr(f):
    """f^2 for f in the cyclotomic subgroup (Granger-Scott, PKC 2010).

    With s = w^3 (s^2 = xi), Fp12 = Fp4[w]/(w^3 - s) and f = A0 + A1 w + A2 w^2
    with A_k = c_k + c_(k+3) s. Then
        f^2 = (3 A0^2 - 2 conj A0) + (3 s A2^2 + 2 conj A1) w
              + (3 A1^2 - 2 conj A2) w^2,   conj(x + y s) = x - y s,
    three Fp4 squarings (9 Fp2 squarings) instead of f12_sqr's 12 products.
    """
    c0, c1, c2, c3, c4, c5 = f
    a0, a1, b0, b1 = _f4_sqr(c0, c3)
    d0, d1, e0, e1 = _f4_sqr(c1, c4)
    g0, g1, h0, h1 = _f4_sqr(c2, c5)
    return (
        ((3 * a0 - 2 * c0[0]) % P, (3 * a1 - 2 * c0[1]) % P),
        ((3 * (9 * h0 - h1) + 2 * c1[0]) % P, (3 * (h0 + 9 * h1) + 2 * c1[1]) % P),
        ((3 * d0 - 2 * c2[0]) % P, (3 * d1 - 2 * c2[1]) % P),
        ((3 * b0 + 2 * c3[0]) % P, (3 * b1 + 2 * c3[1]) % P),
        ((3 * g0 - 2 * c4[0]) % P, (3 * g1 - 2 * c4[1]) % P),
        ((3 * e0 + 2 * c5[0]) % P, (3 * e1 + 2 * c5[1]) % P),
    )


_U_NAF = ec.wnaf(U, 2)  # weight 24, against 28 set bits in binary


def _cyc_pow_u(f):
    """f^U for f in the cyclotomic subgroup, where f12_conj6 is the inverse."""
    f_inv = f12_conj6(f)
    r = f
    for d in _U_NAF[1:]:
        r = _cyc_sqr(r)
        if d:
            r = f12_mul(r, f if d > 0 else f_inv)
    return r


# ---------------------------------------------------------------------------
# Optimal ate pairing
# ---------------------------------------------------------------------------

ATE_LOOP_COUNT = 6 * U + 2
_ATE_NAF = ec.wnaf(ATE_LOOP_COUNT, 2)  # weight 22, against 37 set bits in binary

# Twist-point Frobenius constants: psi(x, y) = (conj(x)*W1X, conj(y)*W1Y),
# W1X = xi^((p - 1)/3) = gamma[1][2] and so on.
_W1X, _W1Y = _FROB_GAMMA[0][2], _FROB_GAMMA[0][3]
_W2X, _W2Y = _FROB_GAMMA[1][2], _FROB_GAMMA[1][3]

_B2X3 = f2_scale(B2, 3)

# The Miller loop keeps each twist point T in homogeneous projective
# coordinates (X, Y, Z), x = X/Z and y = Y/Z, so no step inverts. Lines
# are scaled by factors in Fp2, which the final exponentiation maps to one;
# untwisted and evaluated at P = (xp, yp) each is c0 + c1 w + c3 w^3.
# Formulas for y^2 = x^3 + b' from Costello-Lange-Naehrig (PKC 2010) in the
# form of Aranha et al. (EUROCRYPT 2011), with the doubling scaled by 4 to
# avoid halving. Neither step meets T = +-Q or 2T = O for Q of order N.


def _dbl_step(t, p):
    """(2T, the tangent line at T evaluated at p)."""
    x, y, z = t
    b = f2_sqr(y)
    c = f2_sqr(z)
    e = f2_mul(_B2X3, c)                    # 3b' Z^2
    f = f2_scale(e, 3)
    h = f2_scale(f2_mul(y, z), 2)           # 2YZ
    j = f2_sqr(x)
    t2 = (f2_scale(f2_mul(f2_mul(x, y), f2_sub(b, f)), 2),
          f2_sub(f2_sqr(f2_add(b, f)), f2_scale(f2_sqr(e), 12)),
          f2_scale(f2_mul(b, h), 4))
    return t2, (f2_scale(h, -p[1]), f2_scale(j, 3 * p[0]), f2_sub(e, b))


def _add_step(t, q, p):
    """(T + Q, the line through T and Q evaluated at p) for affine Q."""
    x, y, z = t
    qx, qy = q
    theta = f2_sub(y, f2_mul(qy, z))
    lam = f2_sub(x, f2_mul(qx, z))
    d = f2_sqr(lam)
    e = f2_mul(lam, d)
    g = f2_mul(x, d)
    h = f2_sub(f2_add(e, f2_mul(z, f2_sqr(theta))), f2_add(g, g))
    t2 = (f2_mul(lam, h),
          f2_sub(f2_mul(theta, f2_sub(g, h)), f2_mul(y, e)),
          f2_mul(z, e))
    line = (f2_scale(lam, p[1]), f2_scale(theta, -p[0]),
            f2_sub(f2_mul(theta, qx), f2_mul(lam, qy)))
    return t2, line


def _mul_line(f, line):
    """f * (c0 + c1 w + c3 w^3): Karatsuba over Fp6 with the line's sparse
    halves (c0, 0, 0) and (c1, c3, 0)."""
    c0, c1, c3 = line
    f0, f1 = (f[0], f[2], f[4]), (f[1], f[3], f[5])
    t0 = (f2_mul(f0[0], c0), f2_mul(f0[1], c0), f2_mul(f0[2], c0))
    t1 = _f6_mul(f1, (c1, c3, F2_ZERO))
    r1 = _f6_sub(_f6_mul(_f6_add(f0, f1), (f2_add(c0, c1), c3, F2_ZERO)),
                 _f6_add(t0, t1))
    r0 = _f6_add(t0, _f6_mul_v(t1))
    return (r0[0], r1[0], r0[1], r1[1], r0[2], r1[2])


def miller_loop(pairs):
    """Product over the (P, Q) pairs, P in G1 and Q in G2 (twist
    coordinates), of the optimal ate Miller functions f_{6u+2,Q}(P) with
    the two Frobenius lines, in one loop sharing each step's Fp12
    squaring. Pairs holding the point at infinity (None) contribute one."""
    pairs = [(p, q) for p, q in pairs if p is not None and q is not None]
    ts = [(q[0], q[1], F2_ONE) for _, q in pairs]
    f = F12_ONE
    for d in _ATE_NAF[1:]:
        f = f12_sqr(f)
        for k, (p, _) in enumerate(pairs):
            ts[k], line = _dbl_step(ts[k], p)
            f = _mul_line(f, line)
        if d:
            for k, (p, q) in enumerate(pairs):
                q = q if d > 0 else (q[0], f2_neg(q[1]))
                ts[k], line = _add_step(ts[k], q, p)
                f = _mul_line(f, line)
    # Frobenius correction steps: lines through T, psi(Q) and -psi^2(Q)
    for (p, q), t in zip(pairs, ts):
        q1 = (f2_mul(f2_conj(q[0]), _W1X), f2_mul(f2_conj(q[1]), _W1Y))
        q2_neg = (f2_mul(q[0], _W2X), f2_neg(f2_mul(q[1], _W2Y)))
        t, line = _add_step(t, q1, p)
        f = _mul_line(f, line)
        f = _mul_line(f, _add_step(t, q2_neg, p)[1])
    return f


def final_exponentiation(f):
    # easy part: f^((p^6 - 1)(p^2 + 1)), after which f is cyclotomic
    t = f12_mul(f12_conj6(f), f12_inv(f))
    t = f12_mul(f12_frobenius(t, 2), t)
    # hard part: t^((p^4 - p^2 + 1) / n). Devegili-Scott-Dahab chain
    # (Scott et al., Pairing 2009): the exponent in base p has digits
    # that are polynomials in u, so three exponentiations by u, Frobenius
    # maps and a fixed product chain replace a ~762-bit exponentiation.
    # t lies in the cyclotomic subgroup, where f12_conj6 is the inverse
    # and _cyc_sqr squares.
    fp = f12_frobenius(t, 1)
    fp2 = f12_frobenius(t, 2)
    fp3 = f12_frobenius(t, 3)
    fu = _cyc_pow_u(t)
    fu2 = _cyc_pow_u(fu)
    fu3 = _cyc_pow_u(fu2)
    y0 = f12_mul(f12_mul(fp, fp2), fp3)
    y1 = f12_conj6(t)
    y2 = f12_frobenius(fu2, 2)
    y3 = f12_conj6(f12_frobenius(fu, 1))
    y4 = f12_conj6(f12_mul(fu, f12_frobenius(fu2, 1)))
    y5 = f12_conj6(fu2)
    y6 = f12_conj6(f12_mul(fu3, f12_frobenius(fu3, 1)))
    t0 = f12_mul(f12_mul(_cyc_sqr(y6), y4), y5)
    t1 = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    t1 = _cyc_sqr(f12_mul(_cyc_sqr(t1), t0))
    t0 = f12_mul(t1, y1)
    t1 = f12_mul(t1, y0)
    return f12_mul(_cyc_sqr(t0), t1)


def pairing(p_g1, q_g2):
    """e(P, Q) for P in G1, Q in G2 (twist coordinates)."""
    return final_exponentiation(miller_loop([(p_g1, q_g2)]))


def pairing_check(pairs) -> bool:
    """True iff the product of e(P_i, Q_i) over all pairs equals one."""
    return final_exponentiation(miller_loop(pairs)) == F12_ONE


def hash_to_g1(message: bytes):
    """Deterministic try-and-increment hash onto G1 (not constant time)."""
    from ..hashing import keccak256
    seed = keccak256(message)
    for counter in range(256):
        digest = keccak256(seed + counter.to_bytes(4, "big"))
        x = int.from_bytes(digest, "big") % P
        rhs = (x * x % P * x + B) % P
        # P = 3 (mod 4): y is a square root of rhs iff rhs is a square
        y = pow(rhs, (P + 1) // 4, P)
        if rhs and y * y % P == rhs:
            if y & 1:
                y = P - y
            return (x, y)
    raise RuntimeError("hash_to_g1 failed to find a point")  # pragma: no cover
