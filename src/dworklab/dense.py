"""Dense univariate kernels over a PadicCtx.

A dense polynomial is a plain list of ring elements indexed by exponent,
lowest degree first.  This is the hot path of the pointwise pipeline: master
polynomials specialized at a point are univariate and dense, so products are
done here, via big-integer Kronecker substitution packed through ``bytes``.
Above a small cutoff a single Python big-int multiply replaces the whole
schoolbook convolution; results are bit-identical either way.
"""

from __future__ import annotations

import math

from .errors import NotDivisible

# Schoolbook below this operand length; packing overhead dominates there.
KRONECKER_CUTOFF = 32


def _pack(coeffs, bpc):
    return int.from_bytes(b"".join(c.to_bytes(bpc, "little") for c in coeffs), "little")


def _unpack(x, bpc, count, q):
    raw = x.to_bytes(bpc * count, "little")
    return [int.from_bytes(raw[i * bpc:(i + 1) * bpc], "little") % q for i in range(count)]


def _kron_mul_int(a, b, q):
    la, lb = len(a), len(b)
    bound = (q - 1) * (q - 1) * min(la, lb)
    bpc = (bound.bit_length() + 7) // 8
    prod = _pack(a, bpc) * _pack(b, bpc)
    return _unpack(prod, bpc, la + lb - 1, q)


def _school_mul_int(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % q for c in out]


def _mul_ext(ctx, a, b):
    """Componentwise Kronecker product followed by modulus reduction."""
    q, m = ctx.q, ctx.m
    la, lb = len(a), len(b)
    count = la + lb - 1
    bound = (q - 1) * (q - 1) * min(la, lb) * m
    bpc = (bound.bit_length() + 7) // 8
    pa = [_pack([c[i] for c in a], bpc) for i in range(m)]
    pb = [_pack([c[i] for c in b], bpc) for i in range(m)]
    packed = [0] * (2 * m - 1)
    for i in range(m):
        if pa[i]:
            for j in range(m):
                if pb[j]:
                    packed[i + j] += pa[i] * pb[j]
    cols = [_unpack(x, bpc, count, q) if x else [0] * count for x in packed]
    tail = ctx.modulus[:-1]
    for k in range(2 * m - 2, m - 1, -1):
        ck = cols[k]
        if any(ck):
            base = k - m
            for t, mt in enumerate(tail):
                if mt:
                    dst = cols[base + t]
                    for i in range(count):
                        dst[i] = (dst[i] - mt * ck[i]) % q
    return [tuple(cols[i][j] for i in range(m)) for j in range(count)]


def _school_mul_ext(ctx, a, b):
    mul, add = ctx.mul, ctx.add
    zero = ctx.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if any(ai):
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def dense_mul(ctx, a, b):
    if not a or not b:
        return []
    if ctx.m == 1:
        if min(len(a), len(b)) <= KRONECKER_CUTOFF:
            return _school_mul_int(a, b, ctx.q)
        return _kron_mul_int(a, b, ctx.q)
    if min(len(a), len(b)) <= 8:
        return _school_mul_ext(ctx, a, b)
    return _mul_ext(ctx, a, b)


def dense_pow(ctx, a, e):
    if e == 0:
        return [ctx.one()]
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else dense_mul(ctx, result, base)
        e >>= 1
        if e:
            base = dense_mul(ctx, base, base)
    return list(result)


def dense_linear_pow(ctx, root, e):
    """(t - root)^e via binomial coefficients."""
    out = [ctx.zero()] * (e + 1)
    neg = ctx.neg(root)
    pw = ctx.one()
    for k in range(e, -1, -1):
        out[k] = ctx.scal_int(pw, math.comb(e, k))
        if k:
            pw = ctx.mul(pw, neg)
    return out


def dense_from_roots(ctx, pairs):
    """Expand prod (t - root)^mult for a list of (root, mult) pairs."""
    pairs = [(r, e) for r, e in pairs if e > 0]
    if not pairs:
        return [ctx.one()]
    mults = {e for _, e in pairs}
    if len(mults) == 1:
        e = mults.pop()
        base = [ctx.one()]
        for root, _ in pairs:
            base = dense_mul(ctx, base, [ctx.neg(root), ctx.one()])
        return dense_pow(ctx, base, e)
    polys = sorted((dense_linear_pow(ctx, r, e) for r, e in pairs), key=len)
    while len(polys) > 1:
        polys.sort(key=len)
        a = polys.pop(0)
        b = polys.pop(0)
        polys.append(dense_mul(ctx, a, b))
    return polys[0]


def dense_div_linear(ctx, coeffs, root):
    """Synthetic division by (t - root): returns (quotient, remainder).

    Each step is acc -> c + root * acc.  For m = 2 multiplication by root is
    the fixed 2x2 matrix M built once below, so each step is
    acc -> (c + M acc) mod q on unrolled local ints.
    """
    d = len(coeffs) - 1
    if d < 0:
        return [], ctx.zero()
    quot = [ctx.zero()] * d
    if ctx.m == 2:
        q = ctx.q
        m00, m10 = ctx.mul(root, (1, 0))
        m01, m11 = ctx.mul(root, (0, 1))
        a0, a1 = coeffs[d]
        for i in range(d - 1, -1, -1):
            quot[i] = (a0, a1)
            c0, c1 = coeffs[i]
            a0, a1 = ((c0 + m00 * a0 + m01 * a1) % q,
                      (c1 + m10 * a0 + m11 * a1) % q)
        return quot, (a0, a1)
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        quot[i] = acc
        acc = ctx.add(coeffs[i], ctx.mul(root, acc))
    return quot, acc


def dense_div_linear_exact(ctx, coeffs, root):
    quot, rem = dense_div_linear(ctx, coeffs, root)
    if not ctx.is_zero(rem):
        raise NotDivisible("nonzero remainder in synthetic division")
    return quot


def dense_stride(ctx, coeffs, k):
    """Substitute t -> t^k."""
    if k == 1 or len(coeffs) <= 1:
        return list(coeffs)
    out = [ctx.zero()] * ((len(coeffs) - 1) * k + 1)
    for i, c in enumerate(coeffs):
        out[i * k] = c
    return out


# -- (offset, coeffs) pairs for Laurent-style dense work ----------------------


def off_mul(ctx, A, B):
    (ao, ac), (bo, bc) = A, B
    return ao + bo, dense_mul(ctx, ac, bc)


def off_sub(ctx, A, B):
    (ao, ac), (bo, bc) = A, B
    if not ac and not bc:
        return 0, []
    lo = min(ao, bo) if ac and bc else (ao if ac else bo)
    hi = max(ao + len(ac) if ac else lo, bo + len(bc) if bc else lo)
    out = [ctx.zero()] * (hi - lo)
    for i, c in enumerate(ac):
        out[ao - lo + i] = c
    for i, c in enumerate(bc):
        out[bo - lo + i] = ctx.sub(out[bo - lo + i], c)
    return lo, out


def off_stride(ctx, A, k):
    off, co = A
    return off * k, dense_stride(ctx, co, k)
