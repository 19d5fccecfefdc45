"""Differential tests for every dense_mul path against the brute-force oracle.

dense_mul multiplies by schoolbook when len(a) * len(b) is at most
SCHOOL_PAIRS (m <= 2 only), otherwise by Kronecker substitution: bytes-packed
ints while the shorter operand is at most NTT_CUTOFF long, decimal above it;
a square (``a is b``) takes its own branch in both packed paths.
Bytes-packed slots of up to 8 bytes convert through 64-bit words, wider ones
one coefficient at a time.  The random loops lower NTT_CUTOFF so that the
oracle can check operands on both sides of every cutover; extremal
coefficients then check the real cutover, where they fill every packed slot
to its bound, and an empty x^0 column against full other columns checks that
the lift of the signed m >= 2 fold covers the folded negative terms on both
packed paths.  dense_pow's left-to-right chain is checked against the
binomial expansion of (t - r)^e.  The one-pass product of linear factors,
and the digit terms D^j X^(J - j) that hasse_witt.DenseCache combines, with
their packed sum, are checked against oracle expansions.
"""

import math

import pytest

import dworklab as dl
from dworklab import dense, padic
from conftest import seeded
from oracles import (
    M1_MODULUS,
    M3_FULL_TAIL,
    M4_FULL_TAIL,
    dense_linear_pow,
    oracle_dense_mul,
    rand,
)

# (3, 16, 1) packs most products in slots of exactly 8 bytes, the widest that
# go through 64-bit words; (7, 12, 1) needs slots of 9-10 bytes, which are
# packed one coefficient at a time.
CONTEXTS = [(7, 6, 1), (3, 3, 1), (5, 5, 2), (3, 2, 2), (3, 3, 3), (5, 2, 3),
            (3, 16, 1), (7, 12, 1)]
LOW_NTT_CUTOFF = 40


def _lengths(rng):
    """Shorter-operand lengths on both sides of the schoolbook rule's square
    edge (len(a) * len(b) <= SCHOOL_PAIRS) and of the NTT cutoff."""
    edges = (math.isqrt(dense.SCHOOL_PAIRS), LOW_NTT_CUTOFF)
    return [1, 2] + [e + d for e in edges for d in (0, 1)] + [rng.randrange(1, 70)]


@pytest.mark.parametrize("p,N,m", CONTEXTS)
def test_dense_mul_matches_oracle_on_every_path(monkeypatch, p, N, m):
    monkeypatch.setattr(dense, "NTT_CUTOFF", LOW_NTT_CUTOFF)
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(100 * p + 10 * N + m)
    for la in _lengths(rng):
        a = [rand(ctx, rng) for _ in range(la)]
        want = oracle_dense_mul(a, a, p, N, m, ctx.modulus)
        assert dense.dense_mul(ctx, a, a) == want
        assert dense.dense_mul(ctx, a, list(a)) == want
        for lb in (la, la + rng.randrange(1, 30)):
            b = [rand(ctx, rng) for _ in range(lb)]
            want = oracle_dense_mul(a, b, p, N, m, ctx.modulus)
            assert dense.dense_mul(ctx, a, b) == want
            assert dense.dense_mul(ctx, b, a) == want


@pytest.mark.parametrize("p,N,m", CONTEXTS)
def test_dense_mul_with_zero_components(monkeypatch, p, N, m):
    """A basis component (or whole operand) that packs to zero is skipped."""
    monkeypatch.setattr(dense, "NTT_CUTOFF", LOW_NTT_CUTOFF)
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(7 * p + m)
    for la in (33, 50):
        if m == 1:
            a = [0] * la
        else:
            a = [(rng.randrange(ctx.q),) + (0,) * (m - 1) for _ in range(la)]
        b = [rand(ctx, rng) for _ in range(la + 3)]
        assert dense.dense_mul(ctx, a, a) == oracle_dense_mul(
            a, a, p, N, m, ctx.modulus)
        assert dense.dense_mul(ctx, a, b) == oracle_dense_mul(
            a, b, p, N, m, ctx.modulus)


@pytest.mark.parametrize("width", range(1, 11))
def test_bytes_packing_round_trips(width):
    """Unpacking a packed column gives it back, for slots narrower than,
    equal to and wider than a 64-bit word."""
    q = 3 ** (5 * width)  # the largest power of 3 below 256^width
    rng = seeded(width)
    for n in (1, 7, 64):
        for col in ([rng.randrange(q) for _ in range(n)], [0] * n,
                    [q - 1] * n):
            x = dense._pack_bytes(col, width)
            assert dense._unpack_bytes(x, width, n, q) == col


def _extremal_product(ctx, la, lb):
    """Product of two all-(q-1) operands: pair counts times top*top."""
    top = ctx.q - 1 if ctx.m == 1 else (ctx.q - 1,) * ctx.m
    sq = ctx.mul(top, top)
    count = la + lb - 1
    return top, [ctx.scal_int(sq, min(k + 1, la, lb, count - k))
                 for k in range(count)]


@pytest.mark.parametrize("p,N,m", [(7, 6, 1), (5, 5, 2), (3, 3, 3),
                                   (3, 16, 1), (7, 12, 1)])
def test_dense_mul_extremal_coefficients_at_the_ntt_cutoff(p, N, m):
    ctx = dl.ctx_new(p, N, m)
    for la in (dense.NTT_CUTOFF, dense.NTT_CUTOFF + 1):
        for lb in (la, la + 5):
            top, want = _extremal_product(ctx, la, lb)
            a = [top] * la
            b = a if lb == la else [top] * lb
            assert dense.dense_mul(ctx, a, b) == want


@pytest.mark.parametrize("p,N,m,modulus", [
    (5, 5, 2, None), (3, 2, 2, None), (5, 4, 2, M1_MODULUS), (3, 3, 3, None),
    (5, 2, 3, None)])
@pytest.mark.parametrize("ntt", [False, True], ids=["bytes", "decimal"])
def test_fold_lift_covers_an_empty_column(monkeypatch, p, N, m, modulus, ntt):
    """The x^0 column all 0 and every other column all q - 1.  Every fold
    step of these moduli is <= 0, so the folded negative terms reach their
    bound in full against an empty column, and a lift one q short would
    borrow across slots."""
    if ntt:
        monkeypatch.setattr(dense, "NTT_CUTOFF", LOW_NTT_CUTOFF)
    ctx = dl.PadicCtx(p, N, m, modulus) if modulus else dl.ctx_new(p, N, m)
    assert all(r <= 0 for _, r, _ in padic.fold_steps(ctx))
    top = (0,) + (ctx.q - 1,) * (m - 1)
    la = LOW_NTT_CUTOFF + 5
    for lb in (la, la + 12):
        a = [top] * la
        b = a if lb == la else [top] * lb
        want = oracle_dense_mul(a, b, p, N, m, ctx.modulus)
        assert dense.dense_mul(ctx, a, b) == want
        assert dense.dense_mul(ctx, b, list(a)) == want


@pytest.mark.parametrize("p,N,m", [(7, 6, 1), (5, 5, 2), (3, 3, 3)])
def test_dense_mul_on_both_sides_of_the_pair_rule(p, N, m):
    """Schoolbook exactly up to SCHOOL_PAIRS coefficient pairs for m <= 2,
    never for m >= 3; short-by-long products on both sides of the edge."""
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(11 * p + m)
    for la in (1, 2, 6, 14):
        lb = dense.SCHOOL_PAIRS // la
        assert dense.schoolbook(ctx, la, lb) == (m <= 2)
        assert not dense.schoolbook(ctx, la, lb + 1)
        for n in (lb, lb + 1):
            a = [rand(ctx, rng) for _ in range(la)]
            b = [rand(ctx, rng) for _ in range(n)]
            want = oracle_dense_mul(a, b, p, N, m, ctx.modulus)
            assert dense.dense_mul(ctx, a, b) == want
            assert dense.dense_mul(ctx, b, a) == want


@pytest.mark.parametrize("p,N,m", [(7, 6, 1), (5, 5, 2), (3, 3, 3)])
@pytest.mark.parametrize("e", [4201, 600, 156, 4096, 4095, 8, 7])
def test_dense_pow_matches_the_binomial_expansion(monkeypatch, p, N, m, e):
    """(t - r)^e by the left-to-right chain equals the binomial expansion,
    and every product of the chain is a square or has the base as an
    operand."""
    ctx = dl.ctx_new(p, N, m)
    r = rand(ctx, seeded(e + m))
    base = [ctx.neg(r), ctx.one()]
    shapes = []
    mul = dense.dense_mul

    def recording_mul(ctx, a, b):
        shapes.append((a is b, len(b)))
        return mul(ctx, a, b)

    monkeypatch.setattr(dense, "dense_mul", recording_mul)
    assert dense.dense_pow(ctx, base, e) == dense_linear_pow(ctx, r, e)
    assert len(shapes) == e.bit_length() - 1 + bin(e).count("1") - 1
    assert all(square or lb == len(base) for square, lb in shapes)


@pytest.mark.parametrize("p,N", [(5, 5), (3, 2), (7, 6)])
def test_m2_schoolbook_matches_oracle(p, N):
    """Operands of at most SCHOOL_PAIRS coefficient pairs at m = 2 take the
    unrolled schoolbook:
    all-(q-1) operands fill every accumulator, seeded random ones carry zero
    elements and zero components, and a = b shares one list."""
    ctx = dl.ctx_new(p, N, 2)
    rng = seeded(31 * p + N)
    top = (ctx.q - 1, ctx.q - 1)
    for la in range(1, 9):
        for lb in (la, la + rng.randrange(1, 12)):
            a = [rand(ctx, rng) for _ in range(la)]
            b = [rand(ctx, rng) for _ in range(lb)]
            a[rng.randrange(la)] = ctx.zero()
            b[rng.randrange(lb)] = (0, rng.randrange(1, ctx.q))
            for x, y in (([top] * la, [top] * lb), (a, a), (a, b), (b, a)):
                assert dense.dense_mul(ctx, x, y) == oracle_dense_mul(
                    x, y, p, N, 2, ctx.modulus)


def _oracle_expand(ctx, pairs):
    """prod (t - root)^mult by repeated oracle products with a linear factor."""
    p, N, m = ctx.p, ctx.N, ctx.m
    full = [ctx.one()]
    for root, mult in pairs:
        for _ in range(mult):
            full = oracle_dense_mul(full, [ctx.neg(root), ctx.one()],
                                    p, N, m, ctx.modulus)
    return full


@pytest.mark.parametrize("p,N,m,modulus", [
    (7, 6, 1, None), (3, 3, 1, None), (5, 5, 2, None), (3, 2, 2, None),
    (5, 4, 2, M1_MODULUS), (3, 3, 2, M1_MODULUS), (3, 3, 3, None),
    (5, 2, 3, None), (3, 3, 3, M3_FULL_TAIL), (3, 2, 4, None),
    (5, 2, 4, None), (3, 2, 4, M4_FULL_TAIL)])
@pytest.mark.parametrize("kind", ["random", "top", "zero"])
def test_digit_terms_match_oracle_products(p, N, m, modulus, kind):
    """frobenius_terms packs D^j X^(J - j), j = 0..J = N - 1, for
    L = prod (t - r), X = L'(t^p) with L' = prod (t - r^p) and
    D = L^p - X, and combine_terms of them gives the columns of
    sum_j k_j D^j X^(J - j), each term alone for a unit vector k.  "top"
    takes every root and every k all-(q - 1), which fills every packed
    slot; "zero" takes zero roots, for which D = 0."""
    ctx = dl.PadicCtx(p, N, m, modulus) if modulus else dl.ctx_new(p, N, m)
    rng = seeded(1000 * p + 100 * N + 10 * m + len(kind))
    top = ctx.q - 1 if m == 1 else (ctx.q - 1,) * m
    for n in (1, 3):
        roots = [top if kind == "top" else ctx.zero() if kind == "zero"
                 else rand(ctx, rng) for _ in range(n)]
        ys = [_oracle_expand(ctx, [(ctx.frob(r), k) for r in roots])
              for k in range(N)]
        xs = []
        for y in ys:
            xs.append([ctx.zero()] * (p * len(y) - p + 1))
            xs[-1][::p] = y
        Lp = _oracle_expand(ctx, [(r, p) for r in roots])
        D = [ctx.sub(x, y) for x, y in zip(Lp, xs[1])][:-1] if N > 1 else []
        want = []
        for j in range(N):
            T = xs[N - 1 - j]
            for _ in range(j):
                T = oracle_dense_mul(T, D, p, N, m, ctx.modulus)
            want.append(T)
        width = max(map(len, want))
        want = [T + [ctx.zero()] * (width - len(T)) for T in want]
        packed = dense.frobenius_terms(ctx, Lp, ys)
        for j, T in enumerate(want):
            unit = [int(i == j) for i in range(N)]
            assert dense.combine_terms(ctx, unit, packed) == dense.columns(
                ctx, T)
        ks = [ctx.q - 1 if kind == "top" else rng.randrange(ctx.q)
              for _ in range(N)]
        total = [ctx.zero()] * width
        for k, T in zip(ks, want):
            total = [ctx.add(x, ctx.scal_int(y, k)) for x, y in zip(total, T)]
        assert dense.combine_terms(ctx, ks, packed) == dense.columns(
            ctx, total)
