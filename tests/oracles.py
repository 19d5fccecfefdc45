"""Brute-force reference implementations, independent of the library paths.

Everything here works on raw integers / tuples with explicit reduction, so
library results can be checked against genuinely different code.  The last
section holds small helpers over the library's types that only tests need.
"""

import itertools
import math
from fractions import Fraction

from dworklab.errors import (
    NonUnitDifference,
    NotDivisible,
    UnsupportedArity,
    ZeroPolynomial,
)
from dworklab import hasse_witt
from dworklab.hasse_witt import SymbolicKit
from dworklab.kz import master_polynomial
from dworklab.laurent import LaurentPoly


# x^2 + x + 2 is irreducible over F_3 and F_5; ctx_new picks moduli with no
# x term at m = 2, so this one exercises the m1 part of the x^2 fold.
M1_MODULUS = (2, 1, 1)
# Irreducible over F_3 with no zero below the top, unlike ctx_new's x^3 +
# 2x + 1 and x^4 + x + 2 (tails with zero and nonzero entries).
M3_FULL_TAIL = (1, 1, 2, 1)
M4_FULL_TAIL = (1, 1, 1, 1, 1)


def coeff_reduce(c, p, N, m, modulus):
    if m == 1:
        return c % p**N
    return tuple(x % p**N for x in c)


def coeff_mul(ca, cb, p, N, m, modulus):
    q = p**N
    if m == 1:
        return ca * cb % q
    # naive polynomial product followed by long division by the monic modulus
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] += ca[i] * cb[j]
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top]
        prod[top] = 0
        for t in range(m):
            prod[top - m + t] -= c * modulus[t]
    return tuple(x % q for x in prod[:m])


def coeff_add(ca, cb, p, N, m):
    q = p**N
    if m == 1:
        return (ca + cb) % q
    return tuple((x + y) % q for x, y in zip(ca, cb))


def coeff_is_zero(c, m):
    return c == 0 if m == 1 else not any(c)


def oracle_mul(terms_a, terms_b, p, N, m=1, modulus=None):
    """Dense-minded convolution oracle over exponent-keyed dicts."""
    out = {}
    for ka, ca in terms_a.items():
        for kb, cb in terms_b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            prod = coeff_mul(ca, cb, p, N, m, modulus)
            if key in out:
                out[key] = coeff_add(out[key], prod, p, N, m)
            else:
                out[key] = coeff_reduce(prod, p, N, m, modulus)
    return {k: v for k, v in out.items() if not coeff_is_zero(v, m)}


def oracle_dense_mul(a, b, p, N, m=1, modulus=None):
    out = [0 if m == 1 else (0,) * m] * (len(a) + len(b) - 1) if a and b else []
    out = list(out)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod = coeff_mul(ca, cb, p, N, m, modulus)
            out[i + j] = coeff_add(out[i + j], prod, p, N, m)
    return [coeff_reduce(c, p, N, m, modulus) for c in out]


def poly_divides(divisor, dividend, p):
    """Monic polynomial trial division over F_p (dense low-first lists)."""
    rem = [c % p for c in dividend]
    d = len(divisor) - 1
    while len(rem) - 1 >= d:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - d
            for i, c in enumerate(divisor):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return not any(c % p for c in rem)


def coeff_neg(c, p, N, m):
    q = p**N
    return -c % q if m == 1 else tuple(-x % q for x in c)


def oracle_div_linear(coeffs, root, p, N, m=1, modulus=None):
    """Schoolbook division by (t - root), top coefficient down: (quot, rem)."""
    rem = [coeff_reduce(c, p, N, m, modulus) for c in coeffs]
    quot = [None] * (len(rem) - 1)
    for k in range(len(rem) - 1, 0, -1):
        quot[k - 1] = rem[k]
        step = coeff_mul(rem[k], root, p, N, m, modulus)
        rem[k - 1] = coeff_add(rem[k - 1], step, p, N, m)
    return quot, rem[0]


def oracle_kz_derivative(a, i, e, g, p, N, m=1, modulus=None):
    """Rows of dI_s/dz_i at the point a by two divisions of the expanded
    Phi_s = prod_j (t - a_j)^e, e = (p^s - 1)/2: row k, column l is the
    coefficient of t^(l p^s - 1) in -e_ik Phi_s/((t - a_i)(t - a_k)), with
    e_ik = e - [i == k]."""
    q = p**N
    one = 1 if m == 1 else (1,) + (0,) * (m - 1)
    zero = coeff_reduce(0 if m == 1 else (0,) * m, p, N, m, modulus)
    phi = [one]
    for x in a:
        for _ in range(e):
            phi = oracle_dense_mul(phi, [coeff_neg(x, p, N, m), one], p, N, m,
                                   modulus)
    ps = 2 * e + 1
    qi, rem = oracle_div_linear(phi, a[i - 1], p, N, m, modulus)
    assert coeff_is_zero(rem, m)
    rows = []
    for k in range(1, len(a) + 1):
        scale = -(e - 1) if k == i else -e
        if scale % q == 0:
            rows.append([zero] * g)
            continue
        d, rem = oracle_div_linear(qi, a[k - 1], p, N, m, modulus)
        assert coeff_is_zero(rem, m)
        sc = scale % q if m == 1 else (scale % q,) + (0,) * (m - 1)
        rows.append([coeff_mul(sc, d[l * ps - 1], p, N, m, modulus)
                     if l * ps - 1 < len(d) else zero
                     for l in range(1, g + 1)])
    return rows


def oracle_power(x, e, p, N, m=1, modulus=None):
    """x^e by e - 1 products; the twisted point a^(p^k) for e = p^k."""
    out = x
    for _ in range(e - 1):
        out = coeff_mul(out, x, p, N, m, modulus)
    return out


def oracle_expand_roots(a, mults, p, N, m=1, modulus=None):
    """prod_i (t - a_i)^mults[i] over the 1-based i of mults, as a dense
    list, multiplied out one linear factor at a time."""
    one = 1 if m == 1 else (1,) + (0,) * (m - 1)
    out = [one]
    for i, e in mults.items():
        for _ in range(e):
            out = oracle_dense_mul(out, [coeff_neg(a[i - 1], p, N, m), one],
                                   p, N, m, modulus)
    return out


def oracle_quotient_coeffs(full, a, mults, divided, indices, p, N, m=1,
                           modulus=None):
    """Coefficients at indices of full = ``oracle_expand_roots(a, mults)``
    divided by (t - a_i) for each i in divided, by synthetic division of
    the full expansion, zero out of range.  NotDivisible when divided names
    a factor more often than mults holds it; every division that runs must
    leave a zero remainder."""
    left = dict(mults)
    for i in divided:
        left[i] = left.get(i, 0) - 1
        if left[i] < 0:
            raise NotDivisible(f"t - z_{i} is not a factor")
        full, rem = oracle_div_linear(full, a[i - 1], p, N, m, modulus)
        assert coeff_is_zero(rem, m)
    zero = 0 if m == 1 else (0,) * m
    return [full[k] if 0 <= k < len(full) else zero for k in indices]


def oracle_expand_factors(p, N, m, modulus, n, factors):
    """Terms of prod (t - z_i)^e over (i, e) factors, multiplied out one
    linear factor at a time; keys are (t, z_1, ..., z_n)."""
    one = 1 if m == 1 else (1,) + (0,) * (m - 1)
    acc = {(0,) * (1 + n): one}
    for i, e in factors:
        key = [0] * (1 + n)
        key[i] = 1
        lin = {(1,) + (0,) * n: one,
               tuple(key): coeff_reduce(-1 if m == 1 else (-1,) + (0,) * (m - 1),
                                        p, N, m, modulus)}
        for _ in range(e):
            acc = oracle_mul(acc, lin, p, N, m, modulus)
    return acc


def oracle_mat_mul(ring, A, B):
    """A B over a ringmat.Ring, one product and one sum per term, skipping
    zero left factors."""
    out = []
    for Ai in A:
        row = []
        for j in range(len(B[0]) if B else 0):
            acc = None
            for a, Bk in zip(Ai, B):
                if a == ring.zero:
                    continue
                term = ring.mul(a, Bk[j])
                acc = term if acc is None else ring.add(acc, term)
            row.append(ring.zero if acc is None else acc)
        out.append(row)
    return out


def oracle_det(ring, A):
    """det A over a ringmat.Ring by Laplace expansion along the first row,
    one signed product and one sum per nonzero entry."""
    if not A:
        return ring.one
    if len(A) == 1:
        return A[0][0]
    acc = ring.zero
    for idx, entry in enumerate(A[0]):
        if entry == ring.zero:
            continue
        minor = [row[:idx] + row[idx + 1:] for row in A[1:]]
        term = ring.mul(entry, oracle_det(ring, minor))
        acc = ring.sub(acc, term) if idx & 1 else ring.add(acc, term)
    return acc


def oracle_constant_ok(box, delta, p):
    """(ok, window length, witness) of the all-window admissibility check of
    the constant infinite tuple (N, N, ...) with t-support box N, in exact
    rationals.  delta is a sorted tuple of r-tuples.

    A window of length w has the q-range [(d + lo S) / p^w, (d + hi S) / p^w]
    with S = 1 + p + ... + p^(w-1).  As w grows it tends to [lo, hi] / (p - 1)
    and never reaches an integer end with d strictly inside it.  Windows
    grow until every range equals that limit; the witness is the first q of
    a range box, in lexicographic order, outside delta.
    """
    r = len(delta[0])
    limits = []
    for dl in delta:
        per_dim = []
        for d in range(r):
            L_lo, L_hi = Fraction(box.lo[d], p - 1), Fraction(box.hi[d], p - 1)
            per_dim.append((
                int(L_lo) + 1 if dl[d] > L_lo and L_lo.denominator == 1
                else math.ceil(L_lo),
                int(L_hi) - 1 if dl[d] < L_hi and L_hi.denominator == 1
                else math.floor(L_hi)))
        limits.append(per_dim)
    for w in range(1, 10_001):
        S = Fraction(p**w - 1, p - 1)
        stable = True
        for dl, per_dim in zip(delta, limits):
            ranges = [(math.ceil((dl[d] + box.lo[d] * S) / p**w),
                       math.floor((dl[d] + box.hi[d] * S) / p**w))
                      for d in range(r)]
            stable = stable and ranges == per_dim
            bad = next((q for q in itertools.product(
                *(range(a, b + 1) for a, b in ranges)) if q not in delta),
                None)
            if bad is not None:
                return False, w, {"window_length": w, "delta": dl, "q": bad}
        if stable:
            return True, w, None
    raise UnsupportedArity("stabilization not reached")


# -- helpers over the library's types that only tests use ---------------------


def _monomial(ctx, r, n, place):
    key = [0] * (r + n)
    key[place] = 1
    return LaurentPoly(ctx, r, n, {tuple(key): ctx.one()})


def t_var(ctx, r, n, j=1):
    return _monomial(ctx, r, n, j - 1)


def z_var(ctx, r, n, i):
    return _monomial(ctx, r, n, r + i - 1)


def coeff_t(f, v):
    """Coefficient of t^v; a z-only polynomial (r = 0)."""
    return f.coeffs_t([v])[0]


def is_expanded(f):
    """Whether f's terms have been formed, not only its factored form."""
    return f._terms is not None


def eval_all(f, tvals, zvals):
    """Full evaluation of f to a ring element."""
    ctx = f.ctx
    spec = f.eval_z(zvals) if f.n else f
    tvals = [ctx.from_int(x) if isinstance(x, int) else x for x in tvals]
    acc = ctx.zero()
    for key, c in spec.terms.items():
        for base, e in zip(tvals, key[:f.r]):
            if e:
                base = ctx.inv(base) if e < 0 else base
                c = ctx.mul(c, ctx.pow(base, abs(e)))
        acc = ctx.add(acc, c)
    return acc


def leading_term_lex(f):
    """(coefficient, key) of the largest term of a z-only f (r = 0) for the
    lexicographic order with z1 > z2 > ..."""
    if f.r != 0:
        raise UnsupportedArity("leading term is defined for z-only polynomials")
    if not f.terms:
        raise ZeroPolynomial("the zero polynomial has no leading term")
    key = max(f.terms)
    return f.terms[key], key


def hw_eval(A, a):
    """The rows of a symbolic matrix evaluated at the point a."""
    return [[eval_all(x, [], a) for x in row] for row in A]


def gaudin(cfg, i, a):
    """Gaudin Hamiltonian H_i = 1/2 sum_{j != i} Omega_ij / (a_i - a_j) at a
    residue-distinct point, as an n x n matrix."""
    ctx = cfg.ctx
    n = cfg.n
    a = [ctx.from_int(x) if isinstance(x, int) else x for x in a]
    half = ctx.inv(ctx.from_int(2))
    H = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    ii = i - 1
    for j in range(1, n + 1):
        if j == i:
            continue
        jj = j - 1
        d = ctx.sub(a[ii], a[jj])
        if not ctx.is_unit(d):
            raise NonUnitDifference(
                f"z_{i} - z_{j} has valuation {ctx.val(d)} at the point")
        c = ctx.mul(half, ctx.inv(d))
        H[ii][ii] = ctx.sub(H[ii][ii], c)
        H[jj][jj] = ctx.sub(H[jj][jj], c)
        H[ii][jj] = ctx.add(H[ii][jj], c)
        H[jj][ii] = ctx.add(H[jj][ii], c)
    return H


def _kit(cfg, kit):
    """kit, or by default the family's symbolic kit."""
    return kit or SymbolicKit(cfg.ctx, cfg.delta, cfg.n)


def solution_coefficient(cfg, s, ell, i, kit=None):
    """Entry (i, ell) of the level-s frame for any column index ell; zero
    outside 1..g."""
    rows = _kit(cfg, kit).frame(master_polynomial(cfg, s),
                                (ell * cfg.ctx.p**s - 1,))
    return rows[i - 1][0]


def first_row_gradient(cfg, s, kit=None):
    """The n x g matrix of z-gradients of the first Hasse-Witt row of
    A(s, Phi_s): row i is the first row of the kit's dA(s, Phi_s, i).  It
    equals ((1 - p^s)/2) I_s exactly."""
    kit = _kit(cfg, kit)
    phi = master_polynomial(cfg, s)
    return [kit.dA(s, phi, i)[0] for i in range(1, cfg.n + 1)]


def dense_linear_pow(ctx, root, e):
    """(t - root)^e as a dense list, by binomial coefficients."""
    out = [ctx.zero()] * (e + 1)
    neg = ctx.neg(root)
    pw = ctx.one()
    binom = 1  # comb(e, k), stepped down exactly
    for k in range(e, -1, -1):
        out[k] = ctx.scal_int(pw, binom)
        binom = binom * k // (e - k + 1)
        if k:
            pw = ctx.mul(pw, neg)
    return out


def oracle_tuple_mul(ctx, a, b):
    """a b over ctx by the full product of the coordinate tuples, whose top
    coefficients fold down one at a time by the modulus tail, highest
    first."""
    m, q = ctx.m, ctx.q
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    tail = ctx.modulus[:-1]
    for k in range(2 * m - 2, m - 1, -1):
        ck = prod[k]
        if ck:
            base = k - m
            for t, mt in enumerate(tail):
                if mt:
                    prod[base + t] -= ck * mt
    return tuple(c % q for c in prod[:m])


def oracle_teichmueller(ctx, a):
    """The Teichmueller lift of a by iterating x <- x^(p^m) until the value
    repeats, at most N times: one power past the lift."""
    p = ctx.p
    if all(c % p == 0 for c in ctx.coeffs(a)):
        return ctx.zero()
    e, x = p**ctx.m, a
    for _ in range(ctx.N):
        nxt = ctx.pow(x, e)
        if nxt == x:
            break
        x = nxt
    return x


def rand(ctx, rng):
    """A uniform element of ctx."""
    if ctx.m == 1:
        return rng.randrange(ctx.q)
    return tuple(rng.randrange(ctx.q) for _ in range(ctx.m))


def rand_unit(ctx, rng):
    while True:
        x = rand(ctx, rng)
        if ctx.is_unit(x):
            return x


def val_label(ctx, v):
    return f">={ctx.N}" if v >= ctx.N else str(v)


def embed(ctx, other_ctx, x):
    """Map an element of a context with the same p, m and lower N into ctx."""
    if (other_ctx.p, other_ctx.m) != (ctx.p, ctx.m):
        raise ValueError("incompatible contexts")
    return ctx.from_coeffs(other_ctx.coeffs(x))


def reduce_to(ctx, other_ctx, x):
    """Reduce an element of ctx into a context with the same p, m and lower N."""
    return other_ctx.from_coeffs(ctx.coeffs(x))


def expanded_past_the_base_rule(cache):
    """The (root tuple, exponent) of every power of L = prod (t - r) that a
    DenseCache expanded although its base rule reads it by digits:
    exponent // p >= N and n exponent > EXPAND_DEGREE."""
    return [(roots, e) for ctx, roots, e in cache._powers
            if e // ctx.p >= ctx.N
            and len(roots) * e > hasse_witt.EXPAND_DEGREE]
