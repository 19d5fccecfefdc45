"""Differential tests for every dense_mul path against the brute-force oracle.

dense_mul chooses its path from the shorter operand's length: schoolbook up
to 8 (m >= 2) or KRONECKER_CUTOFF (m = 1), bytes-packed ints up to
NTT_CUTOFF, decimal above it; a square (``a is b``) takes its own branch in
both packed paths.  The random loops lower NTT_CUTOFF so that the oracle can
check operands on both sides of all three cutovers; extremal coefficients
then check the real cutover, where they fill every packed slot to its bound.
"""

import pytest

import dworklab as dl
from dworklab import dense
from conftest import seeded
from oracles import oracle_dense_mul

CONTEXTS = [(7, 6, 1), (3, 3, 1), (5, 5, 2), (3, 2, 2), (3, 3, 3), (5, 2, 3)]
LOW_NTT_CUTOFF = 40


def _lengths(rng):
    """Shorter-operand lengths on both sides of 8, 32 and the NTT cutoff."""
    edges = (8, dense.KRONECKER_CUTOFF, LOW_NTT_CUTOFF)
    return [e + d for e in edges for d in (0, 1)] + [rng.randrange(1, 70)]


@pytest.mark.parametrize("p,N,m", CONTEXTS)
def test_dense_mul_matches_oracle_on_every_path(monkeypatch, p, N, m):
    monkeypatch.setattr(dense, "NTT_CUTOFF", LOW_NTT_CUTOFF)
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(100 * p + 10 * N + m)
    for la in _lengths(rng):
        a = [ctx.rand(rng) for _ in range(la)]
        want = oracle_dense_mul(a, a, p, N, m, ctx.modulus)
        assert dense.dense_mul(ctx, a, a) == want
        assert dense.dense_mul(ctx, a, list(a)) == want
        for lb in (la, la + rng.randrange(1, 30)):
            b = [ctx.rand(rng) for _ in range(lb)]
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
        b = [ctx.rand(rng) for _ in range(la + 3)]
        assert dense.dense_mul(ctx, a, a) == oracle_dense_mul(
            a, a, p, N, m, ctx.modulus)
        assert dense.dense_mul(ctx, a, b) == oracle_dense_mul(
            a, b, p, N, m, ctx.modulus)


def _extremal_product(ctx, la, lb):
    """Product of two all-(q-1) operands: pair counts times top*top."""
    top = ctx.q - 1 if ctx.m == 1 else (ctx.q - 1,) * ctx.m
    sq = ctx.mul(top, top)
    count = la + lb - 1
    return top, [ctx.scal_int(sq, min(k + 1, la, lb, count - k))
                 for k in range(count)]


@pytest.mark.parametrize("p,N,m", [(7, 6, 1), (5, 5, 2), (3, 3, 3)])
def test_dense_mul_extremal_coefficients_at_the_ntt_cutoff(p, N, m):
    ctx = dl.ctx_new(p, N, m)
    for la in (dense.NTT_CUTOFF, dense.NTT_CUTOFF + 1):
        for lb in (la, la + 5):
            top, want = _extremal_product(ctx, la, lb)
            a = [top] * la
            b = a if lb == la else [top] * lb
            assert dense.dense_mul(ctx, a, b) == want


@pytest.mark.parametrize("p,N", [(5, 5), (3, 2), (7, 6)])
def test_m2_schoolbook_matches_oracle(p, N):
    """Shorter operands of length 1-8 at m = 2 take the unrolled schoolbook:
    all-(q-1) operands fill every accumulator, seeded random ones carry zero
    elements and zero components, and a = b shares one list."""
    ctx = dl.ctx_new(p, N, 2)
    rng = seeded(31 * p + N)
    top = (ctx.q - 1, ctx.q - 1)
    for la in range(1, 9):
        for lb in (la, la + rng.randrange(1, 12)):
            a = [ctx.rand(rng) for _ in range(la)]
            b = [ctx.rand(rng) for _ in range(lb)]
            a[rng.randrange(la)] = ctx.zero()
            b[rng.randrange(lb)] = (0, rng.randrange(1, ctx.q))
            for x, y in (([top] * la, [top] * lb), (a, a), (a, b), (b, a)):
                assert dense.dense_mul(ctx, x, y) == oracle_dense_mul(
                    x, y, p, N, 2, ctx.modulus)
