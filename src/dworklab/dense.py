"""Dense univariate kernels over a PadicCtx.

A dense polynomial is a plain list of ring elements indexed by exponent,
lowest degree first.  This is the hot path of the pointwise pipeline: master
polynomials specialized at a point are univariate and dense, so products are
done here by Kronecker substitution: each basis component becomes one big
number with a fixed-width slot per coefficient, and one big multiply replaces
the whole convolution.  Results are bit-identical on every path.

- At most SCHOOL_PAIRS coefficient pairs len(a) * len(b), and m <= 2:
  schoolbook, on three plain-int accumulators per coefficient for m = 2.
- Shorter operand up to NTT_CUTOFF: Python ints packed through ``bytes``
  (Karatsuba).  Slots of up to 8 bytes convert through 64-bit words, so no
  int is made per slot; wider slots convert one coefficient at a time.
- Above NTT_CUTOFF: ``decimal`` numbers packed in base 10^d through a
  zero-padded string join, which libmpdec multiplies by a number-theoretic
  transform.  ``Decimal(int)`` would be quadratic, so ints never cross over.

A square (``a is b``) is packed once and multiplied by itself.  For m >= 2 the
reduction modulo the defining polynomial is folded into the packed columns
before unpacking, so only m columns are ever unpacked.  The fold steps
(ctx.fold, made by padic.fold_steps, the one fold outside the m = 2 closed
forms) are signed
(-2 for x^2 + 2), and each column is lifted by a multiple of q that keeps
its slots nonnegative: slots hold about 3 (q - 1)^2 short for x^2 + 2, not
q (q - 1)^2 short.  dense_pow goes left to right (padic.power), so every
product of its chain is a square or has the short base as one operand.

A factored form at a point is read by the base-p digits of its exponent
(hasse_witt.DenseCache) off the terms D^j X^(J - j) of ``frobenius_terms``,
packed once and summed with binomial weights by ``combine_terms``.
"""

from __future__ import annotations

import decimal
import struct
from functools import partial, reduce
from itertools import accumulate
from operator import mul

from .padic import power


# Schoolbook up to this many coefficient pairs len(a) * len(b) (m <= 2): the
# packed product wins from 150-250 pairs at q = 7^6, 5^5, 3^16 (m = 1) and
# 5^5, 5^7, 7^6 (m = 2), a little later for 1 x n and 2 x n shapes.
SCHOOL_PAIRS = 200
# libmpdec NTT above this shorter-operand length.  The kernels alone cross
# over between about 1.5k and 2.6k coefficients (q = 7^6 and 5^5); 1024 gave
# the best pointwise expansion throughput end to end.
NTT_CUTOFF = 1024

# Integer-exact decimal arithmetic: no rounding at any size.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


def _pack_bytes(coeffs, width):
    if width > 8:
        return int.from_bytes(
            b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")
    # Every coefficient is < q <= bound < 2^(8 width), so it fits one
    # little-endian word, whose low `width` bytes are its slot.
    words = struct.pack(f"<{len(coeffs)}Q", *coeffs)
    out = bytearray(width * len(coeffs))
    for j in range(width):
        out[j::width] = words[j::8]
    return int.from_bytes(out, "little")


def _unpack_bytes(x, width, count, q):
    raw = x.to_bytes(width * count, "little")
    if width > 8:
        slots = struct.iter_unpack(f"{width}s", raw)
        return [int.from_bytes(c, "little") % q for (c,) in slots]
    # Widen each slot to a zero-padded word, then read all words at once.
    buf = bytearray(8 * count)
    for j in range(width):
        buf[j::8] = raw[j::width]
    return [c % q for c in struct.unpack(f"<{count}Q", buf)]


def _pack_dec(coeffs, width):
    return decimal.Decimal((f"%0{width}d" * len(coeffs)) % tuple(reversed(coeffs)))


def _unpack_dec(x, width, count, q):
    slots = struct.iter_unpack(f"{width}s", str(x).zfill(width * count).encode())
    out = [int(c) % q for (c,) in slots]
    out.reverse()
    return out


def _kron_mul(ctx, a, b):
    """a * b by Kronecker substitution, bytes- or decimal-packed by size."""
    q, m = ctx.q, ctx.m
    short = min(len(a), len(b))
    count = len(a) + len(b) - 1
    square = a is b
    cols_a = columns(ctx, a)
    cols_b = cols_a if square else columns(ctx, b)
    fold = ctx.fold
    # Slots of column k of the convolution sum min(k, 2m - 2 - k) + 1
    # products a_i * b_j, each at most (q - 1)^2 short.  Folding adds r
    # times column k to column i per step (i, r, k); lift[i], the least
    # multiple of q that covers its negative part, is added to every slot
    # of column i and vanishes mod q, so every slot stays in [0, bound].
    cap = [(q - 1) * (q - 1) * short * (min(k, 2 * m - 2 - k) + 1)
           for k in range(2 * m - 1)]
    lift, bound = [0] * m, cap[0]
    for i in range(m):
        terms = [r * cap[k] for j, r, k in fold if j == i]
        lift[i] = -(sum(t for t in terms if t < 0) // q) * q
        bound = max(bound, cap[i] + lift[i] + sum(t for t in terms if t > 0))
    if short > NTT_CUTOFF:
        pack, unpack, width = _pack_dec, _unpack_dec, len(str(bound))
    else:
        pack, unpack, width = _pack_bytes, _unpack_bytes, (bound.bit_length() + 7) // 8
    with decimal.localcontext(_EXACT):
        pa = [pack(col, width) for col in cols_a]
        pb = pa if square else [pack(col, width) for col in cols_b]
        prods = [0] * (2 * m - 1)
        for i in range(m):  # a square forms each cross product once, doubled
            for j in range(i if square else 0, m):
                if pa[i] and pb[j]:
                    x = pa[i] * pb[j]
                    prods[i + j] += x + x if square and j > i else x
        for i, r, k in fold:  # reduce before unpacking
            if prods[k]:
                prods[i] += r * prods[k]
        if any(lift):  # ones: 1 in each of the count slots
            if pack is _pack_bytes:
                ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")
            else:  # (10^(width count) - 1) / (10^width - 1)
                ones = (decimal.Decimal(1).scaleb(width * count) - 1) // (10**width - 1)
            for i, x in enumerate(lift):
                prods[i] += x * ones
    cols = [unpack(x, width, count, q) if x else [0] * count for x in prods[:m]]
    return cols[0] if m == 1 else list(zip(*cols))


# Closed form: a PadicCtx.dot per coefficient took 4.2 -> 9.1 us at 5 x 5.
def _school_mul_int(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % q for c in out]


# Closed form: at 5 x 5, columns took 7.7 -> 26.2 us and dots 7.9 -> 13.3 us.
def _school_mul_ext(ctx, a, b):
    """m = 2: three int accumulators per coefficient (1, x, x^2), then one
    fold of x^2 = -m0 - m1 x."""
    q = ctx.q
    m0, m1 = ctx.modulus[0], ctx.modulus[1]
    count = len(a) + len(b) - 1
    c0, c1, c2 = [0] * count, [0] * count, [0] * count
    for i, (a0, a1) in enumerate(a):
        if a0 or a1:
            for k, (b0, b1) in enumerate(b, i):
                c0[k] += a0 * b0
                c1[k] += a0 * b1 + a1 * b0
                c2[k] += a1 * b1
    return [((x - m0 * z) % q, (y - m1 * z) % q)
            for x, y, z in zip(c0, c1, c2)]


def schoolbook(ctx, la, lb):
    """Whether dense_mul multiplies operands of lengths la and lb by
    schoolbook: at most SCHOOL_PAIRS coefficient pairs, and m <= 2."""
    return ctx.m <= 2 and la * lb <= SCHOOL_PAIRS


def dense_mul(ctx, a, b):
    if not a or not b:
        return []
    if schoolbook(ctx, len(a), len(b)):
        if ctx.m == 1:
            return _school_mul_int(a, b, ctx.q)
        return _school_mul_ext(ctx, a, b)
    return _kron_mul(ctx, a, b)


def dense_pow(ctx, a, e):
    """a^e by padic.power, so every product but the squares has the short
    base as one operand."""
    if e == 0:
        return [ctx.one()]
    return list(power(partial(dense_mul, ctx), a, e))


# Closed forms at m = 1, 2: columns over 5 roots took 4.8 -> 12.1, 12.0 -> 33.7 us.
def _linear_product(ctx, roots):
    """prod (t - root), one root at a time: new[k] = old[k-1] - root * old[k].

    For m = 2 the two basis columns are kept as plain ints, and
    root * (h0 + h1 x) = r0 h0 - m0 r1 h1 + (r0 h1 + r1 h0 - m1 r1 h1) x
    folds x^2 = -m0 - m1 x in place.  For m >= 3 each new[k] is one dot
    of (old[k-1], old[k]) against (1, -root).
    """
    q, m = ctx.q, ctx.m
    if m == 1:
        out = [1]
        for r in roots:
            out = [(lo - r * hi) % q for lo, hi in zip([0] + out, out + [0])]
        return out
    if m == 2:
        m0, m1 = ctx.modulus[0], ctx.modulus[1]
        c0, c1 = [1], [0]
        for r0, r1 in roots:
            f0, f1 = m0 * r1, m1 * r1
            h0, h1 = c0 + [0], c1 + [0]
            c0, c1 = ([(lo - r0 * x + f0 * y) % q
                       for lo, x, y in zip([0] + c0, h0, h1)],
                      [(lo - r0 * y - r1 * x + f1 * y) % q
                       for lo, x, y in zip([0] + c1, h0, h1)])
        return list(zip(c0, c1))
    zero, one = ctx.zero(), ctx.one()
    out = [one]
    for r in roots:
        pair = one, ctx.neg(r)
        out = [ctx.dot(pair, c) for c in zip([zero] + out, out + [zero])]
    return out


def dense_from_roots(ctx, pairs):
    """Expand prod (t - root)^mult for a list of (root, mult) pairs: one
    linear product per multiplicity, raised to it, and the groups multiplied."""
    groups = {}
    for r, e in pairs:
        if e > 0:
            groups.setdefault(e, []).append(r)
    if not groups:
        return [ctx.one()]
    return reduce(partial(dense_mul, ctx),
                  [dense_pow(ctx, _linear_product(ctx, roots), e)
                   for e, roots in groups.items()])


def frobenius_terms(ctx, Lp, ys):
    """The terms T_j = D^j X^(J - j), j = 0..J = len(ys) - 1, of
    X = L'(t^p) and D = L^p - X, from Lp = L^p and ys[k] = L'^k: packed
    as for _kron_mul, one int per basis column, in slots wide enough for
    sum_j k_j T_j with plain ints 0 <= k_j < q: (width, length, ints)."""
    p, J, xs = ctx.p, len(ys) - 1, []
    for y in ys:  # X^k = L'^k(t^p)
        xs.append([ctx.zero()] * (p * len(y) - p + 1))
        xs[-1][::p] = y
    D = list(map(ctx.sub, Lp, xs[1]))[:-1] if J else []
    out = [xs[J]] + [dense_mul(ctx, Dj, xs[J - j]) if j < J else Dj for j, Dj
                     in enumerate(accumulate([D] * J, partial(dense_mul, ctx)), 1)]
    size = max(map(len, out))
    width = ((len(out) * (ctx.q - 1) ** 2).bit_length() + 7) // 8
    return width, size, [[_pack_bytes(col + [0] * (size - len(col)), width)
                          for col in columns(ctx, T)] for T in out]


def combine_terms(ctx, ks, packed):
    """The columns of sum_j ks[j] T_j for plain ints 0 <= ks[j] < q and
    the terms packed by frobenius_terms: a big-int sum per column."""
    width, count, terms = packed
    return [_unpack_bytes(sum(map(mul, ks, col)), width, count, ctx.q)
            for col in zip(*terms)]


def columns(ctx, a):
    """The m plain-int columns of the dense list a."""
    return [a] if ctx.m == 1 else [list(c) for c in zip(*a)] or [[]] * ctx.m


# No caller in src/: BENCHMARK.json's per_layer metrics name dense_div_linear
# (ROADMAP item 8).
def dense_div_linear(ctx, coeffs, root):
    """Synthetic division by (t - root): returns (quotient, remainder), by
    the steps acc -> c + root * acc from the top coefficient down."""
    acc, quot = ctx.zero(), []
    for c in reversed(coeffs):
        quot.append(acc)
        acc = ctx.add(c, ctx.mul(root, acc))
    return quot[:0:-1], acc
