"""alt-bn128 (BN254) curve arithmetic and the optimal ate pairing.

Everything is derived from the single BN parameter ``U``:

    p = 36u^4 + 36u^3 + 24u^2 + 6u + 1      (base field)
    n = 36u^4 + 36u^3 + 18u^2 + 6u + 1      (group order)

G1 is y^2 = x^3 + 3 over Fp with generator (1, 2). G2 lives on the
sextic twist y^2 = x^3 + 3/xi over Fp2 with xi = 9 + i. Fp12 is
represented flat as six Fp2 coefficients over w with w^6 = xi; the
untwist map (x, y) -> (x*w^2, y*w^3) carries twist points onto the
curve over Fp12, which keeps all Miller-loop line evaluations sparse.
G1 and G2 share the a = 0 group law of ``xchain.ec`` with secp256k1.

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

_F1 = ec.prime_curve(P, B, N)

_F2 = ec.Curve(
    add=f2_add, sub=f2_sub, mul=f2_mul, sqr=f2_sqr,
    inv=f2_inv, neg=f2_neg, scale_int=f2_scale,
    zero=F2_ZERO, one=F2_ONE, b=B2, order=N,
)


def g1_add(p1, p2):
    return ec.add(_F1, p1, p2)


def g1_mul(pt, k):
    return ec.mul(_F1, pt, k)


def g1_neg(pt):
    return ec.neg(_F1, pt)


def g1_on_curve(pt):
    return ec.on_curve(_F1, pt)


def g2_add(p1, p2):
    return ec.add(_F2, p1, p2)


def g2_mul(pt, k):
    return ec.mul(_F2, pt, k)


def g2_neg(pt):
    return ec.neg(_F2, pt)


def g2_on_curve(pt):
    return ec.on_curve(_F2, pt)


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
# Fp12 flat over Fp2: f = sum(c[j] * w^j), w^6 = xi.
# ---------------------------------------------------------------------------

F12_ONE = (F2_ONE, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO)
F12_ZERO = (F2_ZERO,) * 6


def f12_mul(a, b):
    acc = [F2_ZERO] * 11
    for i in range(6):
        ai = a[i]
        if ai == F2_ZERO:
            continue
        for j in range(6):
            if b[j] == F2_ZERO:
                continue
            acc[i + j] = f2_add(acc[i + j], f2_mul(ai, b[j]))
    return _f12_reduce(acc)


def f12_sqr(a):
    # each cross product a_i*a_j (i < j) occurs twice: 6 squarings and
    # 15 products instead of f12_mul's 36 products
    acc = [F2_ZERO] * 11
    for i in range(6):
        ai = a[i]
        if ai == F2_ZERO:
            continue
        acc[2 * i] = f2_add(acc[2 * i], f2_sqr(ai))
        ai2 = f2_add(ai, ai)
        for j in range(i + 1, 6):
            if a[j] != F2_ZERO:
                acc[i + j] = f2_add(acc[i + j], f2_mul(ai2, a[j]))
    return _f12_reduce(acc)


def f12_mul_sparse(f, terms):
    """Multiply f by sum(coeff * w^pos) for sparse line evaluations."""
    acc = [F2_ZERO] * 11
    for pos, coeff in terms:
        if coeff == F2_ZERO:
            continue
        for i in range(6):
            if f[i] == F2_ZERO:
                continue
            acc[i + pos] = f2_add(acc[i + pos], f2_mul(f[i], coeff))
    return _f12_reduce(acc)


def _f12_reduce(acc):
    """Fold the coefficients of w^6..w^10 back with w^6 = xi."""
    for k in range(10, 5, -1):
        if acc[k] != F2_ZERO:
            acc[k - 6] = f2_add(acc[k - 6], f2_mul_xi(acc[k]))
    return tuple(acc[:6])


def f12_conj6(a):
    """a^(p^6): w -> -w, i.e. negate odd coefficients."""
    return (a[0], f2_neg(a[1]), a[2], f2_neg(a[3]), a[4], f2_neg(a[5]))


def _f6_mul(a, b):
    # Fp6 = Fp2[v]/(v^3 - xi), a = (a0, a1, a2)
    t0 = f2_mul(a[0], b[0])
    t1 = f2_mul(a[1], b[1])
    t2 = f2_mul(a[2], b[2])
    c0 = f2_add(t0, f2_mul_xi(f2_sub(f2_mul(f2_add(a[1], a[2]), f2_add(b[1], b[2])),
                                     f2_add(t1, t2))))
    c1 = f2_add(f2_sub(f2_mul(f2_add(a[0], a[1]), f2_add(b[0], b[1])),
                       f2_add(t0, t1)),
                f2_mul_xi(t2))
    c2 = f2_add(f2_sub(f2_mul(f2_add(a[0], a[2]), f2_add(b[0], b[2])),
                       f2_add(t0, t2)),
                t1)
    return (c0, c1, c2)


def _f6_inv(a):
    c0 = f2_sub(f2_sqr(a[0]), f2_mul_xi(f2_mul(a[1], a[2])))
    c1 = f2_sub(f2_mul_xi(f2_sqr(a[2])), f2_mul(a[0], a[1]))
    c2 = f2_sub(f2_sqr(a[1]), f2_mul(a[0], a[2]))
    t = f2_add(f2_mul(a[0], c0),
               f2_mul_xi(f2_add(f2_mul(a[2], c1), f2_mul(a[1], c2))))
    t_inv = f2_inv(t)
    return (f2_mul(c0, t_inv), f2_mul(c1, t_inv), f2_mul(c2, t_inv))


def _f6_mul_v(a):
    return (f2_mul_xi(a[2]), a[0], a[1])


def _f6_neg(a):
    return (f2_neg(a[0]), f2_neg(a[1]), f2_neg(a[2]))


def _f6_sub(a, b):
    return (f2_sub(a[0], b[0]), f2_sub(a[1], b[1]), f2_sub(a[2], b[2]))


def f12_inv(a):
    # Through the tower view d0 + w*d1 with d0 = (c0, c2, c4), d1 = (c1, c3, c5):
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


# Frobenius constants gamma[k][j] = xi^(j*(p^k - 1)/6) for k = 1, 2, 3.
_FROB_GAMMA = []
for _k in (1, 2, 3):
    _e = (P ** _k - 1) // 6
    _g1 = f2_pow(XI, _e)
    _row = [F2_ONE]
    for _j in range(1, 6):
        _row.append(f2_mul(_row[-1], _g1))
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
# Optimal ate pairing
# ---------------------------------------------------------------------------

ATE_LOOP_COUNT = 6 * U + 2

# Twist-point Frobenius constants: psi(x, y) = (conj(x)*W1X, conj(y)*W1Y)
_W1X = f2_pow(XI, (P - 1) // 3)
_W1Y = f2_pow(XI, (P - 1) // 2)
_W2X = f2_pow(XI, (P ** 2 - 1) // 3)
_W2Y = f2_pow(XI, (P ** 2 - 1) // 2)


def _line_eval(a, b, p_g1):
    """Line through twist points a, b (or tangent if a == b), evaluated
    at the G1 point p after untwisting. Returns sparse Fp12 terms."""
    xa, ya = a
    xb, yb = b
    xp, yp = p_g1
    if xa != xb:
        lam = f2_mul(f2_sub(yb, ya), f2_inv(f2_sub(xb, xa)))
    elif ya == yb and ya != F2_ZERO:
        lam = f2_mul(f2_scale(f2_sqr(xa), 3), f2_inv(f2_scale(ya, 2)))
    else:
        # vertical line x - xa, untwisted: xp - xa*w^2
        return [(0, (xp % P, 0)), (2, f2_neg(xa))]
    # y_p - lam*x_p*w + (lam*x_a - y_a)*w^3
    c1 = f2_neg(f2_scale(lam, xp))
    c3 = f2_sub(f2_mul(lam, xa), ya)
    return [(0, (yp % P, 0)), (1, c1), (3, c3)]


def miller_loop(p_g1, q_g2):
    if p_g1 is None or q_g2 is None:
        return F12_ONE
    t = q_g2
    f = F12_ONE
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        f = f12_mul_sparse(f12_sqr(f), _line_eval(t, t, p_g1))
        t = g2_add(t, t)
        if (ATE_LOOP_COUNT >> i) & 1:
            f = f12_mul_sparse(f, _line_eval(t, q_g2, p_g1))
            t = g2_add(t, q_g2)
    # Frobenius correction steps
    q1 = (f2_mul(f2_conj(q_g2[0]), _W1X), f2_mul(f2_conj(q_g2[1]), _W1Y))
    q2 = (f2_mul(q_g2[0], _W2X), f2_mul(q_g2[1], _W2Y))
    f = f12_mul_sparse(f, _line_eval(t, q1, p_g1))
    t = g2_add(t, q1)
    f = f12_mul_sparse(f, _line_eval(t, g2_neg(q2), p_g1))
    return f


def final_exponentiation(f):
    # easy part: f^((p^6 - 1)(p^2 + 1))
    t = f12_mul(f12_conj6(f), f12_inv(f))
    t = f12_mul(f12_frobenius(t, 2), t)
    # hard part: t^((p^4 - p^2 + 1) / n). Devegili-Scott-Dahab chain
    # (Scott et al., Pairing 2009): the exponent in base p has digits
    # that are polynomials in u, so three exponentiations by u, Frobenius
    # maps and a fixed product chain replace a ~762-bit exponentiation.
    # t lies in the cyclotomic subgroup, where f12_conj6 is the inverse.
    fp = f12_frobenius(t, 1)
    fp2 = f12_frobenius(t, 2)
    fp3 = f12_frobenius(t, 3)
    fu = f12_pow(t, U)
    fu2 = f12_pow(fu, U)
    fu3 = f12_pow(fu2, U)
    y0 = f12_mul(f12_mul(fp, fp2), fp3)
    y1 = f12_conj6(t)
    y2 = f12_frobenius(fu2, 2)
    y3 = f12_conj6(f12_frobenius(fu, 1))
    y4 = f12_conj6(f12_mul(fu, f12_frobenius(fu2, 1)))
    y5 = f12_conj6(fu2)
    y6 = f12_conj6(f12_mul(fu3, f12_frobenius(fu3, 1)))
    t0 = f12_mul(f12_mul(f12_sqr(y6), y4), y5)
    t1 = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    t1 = f12_sqr(f12_mul(f12_sqr(t1), t0))
    t0 = f12_mul(t1, y1)
    t1 = f12_mul(t1, y0)
    return f12_mul(f12_sqr(t0), t1)


def pairing(p_g1, q_g2):
    """e(P, Q) for P in G1, Q in G2 (twist coordinates)."""
    return final_exponentiation(miller_loop(p_g1, q_g2))


def pairing_check(pairs) -> bool:
    """True iff the product of e(P_i, Q_i) over all pairs equals one."""
    f = F12_ONE
    for p_g1, q_g2 in pairs:
        f = f12_mul(f, miller_loop(p_g1, q_g2))
    return final_exponentiation(f) == F12_ONE


def hash_to_g1(message: bytes):
    """Deterministic try-and-increment hash onto G1 (not constant time)."""
    from ..hashing import keccak256
    seed = keccak256(message)
    for counter in range(256):
        digest = keccak256(seed + counter.to_bytes(4, "big"))
        x = int.from_bytes(digest, "big") % P
        rhs = (x * x % P * x + B) % P
        if pow(rhs, (P - 1) // 2, P) == 1:
            y = pow(rhs, (P + 1) // 4, P)
            if y & 1:
                y = P - y
            return (x, y)
    raise RuntimeError("hash_to_g1 failed to find a point")  # pragma: no cover
