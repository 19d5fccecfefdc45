"""ringmat's products, determinants and adjugates, each entry one Ring.dot,
against the per-term loops of oracles.py, and padic.power against repeated
products."""

import itertools
import operator
from functools import partial, reduce

import pytest

import dworklab as dl
from dworklab import dense, ringmat
from dworklab.laurent import LaurentPoly
from dworklab.padic import power
from conftest import rand_laurent, seeded
from oracles import M3_FULL_TAIL, oracle_det, oracle_mat_mul, rand

CTXS = {
    "m1": lambda: dl.ctx_new(5, 3, 1),
    "m2": lambda: dl.ctx_new(5, 3, 2),
    "m3": lambda: dl.PadicCtx(3, 3, 3, M3_FULL_TAIL),
    "poly": lambda: dl.ctx_new(3, 3, 1),
}


def _ring_and_elements(name, rng):
    """The named ring and a maker of its elements, about a third of them
    zero: scalars, or z-polynomials in two variables."""
    ctx = CTXS[name]()
    if name == "poly":
        ring = ringmat.poly_ring(ctx, 0, 2)
        nonzero = partial(rand_laurent, rng, ctx, 0, 2, 0, 0, 4)
    else:
        ring = ringmat.scalar_ring(ctx)
        nonzero = partial(rand, ctx, rng)
    return ring, lambda: ring.zero if rng.randrange(3) == 0 else nonzero()


def _matrices(ring, elem, rows, cols, rng):
    """A random rows x cols matrix, a copy with one zero row, and the zero
    matrix."""
    A = [[elem() for _ in range(cols)] for _ in range(rows)]
    B = [list(row) for row in A]
    B[rng.randrange(rows)] = [ring.zero] * cols
    return [A, B, [[ring.zero] * cols for _ in range(rows)]]


@pytest.mark.parametrize("name", sorted(CTXS))
def test_mat_mul_matches_the_per_term_loop(name):
    rng = seeded(len(name) + 11)
    ring, elem = _ring_and_elements(name, rng)
    for rows, inner, cols in itertools.product(range(1, 4), repeat=3):
        for A, B in itertools.product(
                _matrices(ring, elem, rows, inner, rng),
                _matrices(ring, elem, inner, cols, rng)):
            assert ringmat.mat_mul(ring, A, B) == oracle_mat_mul(ring, A, B)


@pytest.mark.parametrize("name", sorted(CTXS))
def test_det_and_adjugate_match_the_per_term_loop(name):
    """det against the Laplace loop, and every adjugate entry against the
    loop's signed minor (adj A)_ij = (-1)^(i+j) det A without row j and
    column i."""
    rng = seeded(len(name) + 23)
    ring, elem = _ring_and_elements(name, rng)
    for g in range(1, 4):
        for _ in range(4):
            for A in _matrices(ring, elem, g, g, rng):
                assert ringmat.det(ring, A) == oracle_det(ring, A)
                adj = ringmat.adjugate(ring, A)
                for i, j in itertools.product(range(g), repeat=2):
                    minor = [row[:i] + row[i + 1:]
                             for r, row in enumerate(A) if r != j]
                    want = oracle_det(ring, minor) if g > 1 else ring.one
                    assert adj[i][j] == (ring.neg(want) if (i + j) & 1
                                         else want)


def _repeated(mul, a, e):
    return reduce(mul, [a] * e)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_over_a_context_is_the_repeated_product(m):
    ctx = dl.ctx_new(5, 4, m)
    rng = seeded(m)
    for a in (ctx.one(), ctx.zero(), rand(ctx, rng), rand(ctx, rng)):
        for e in range(1, 71):
            assert power(ctx.mul, a, e) == _repeated(ctx.mul, a, e)
            assert ctx.pow(a, e) == _repeated(ctx.mul, a, e)
        assert ctx.pow(a, 0) == ctx.one()


@pytest.mark.parametrize("m", [1, 2])
def test_power_over_dense_lists_is_the_repeated_product(m):
    ctx = dl.ctx_new(5, 3, m)
    mul, rng = partial(dense.dense_mul, ctx), seeded(m)
    a = [rand(ctx, rng), rand(ctx, rng), ctx.one()]
    for e in range(1, 71):
        want = _repeated(mul, a, e)
        assert power(mul, a, e) == want
        assert dense.dense_pow(ctx, a, e) == want


def test_power_over_laurent_polynomials_is_the_repeated_product():
    ctx = dl.ctx_new(3, 3, 1)
    rng = seeded(5)
    a = rand_laurent(rng, ctx, 1, 1, -1, 1, 3)
    for e in range(1, 71):
        want = _repeated(operator.mul, a, e)
        assert power(operator.mul, a, e) == want
        assert a ** e == want
    assert a ** 0 == LaurentPoly.one(ctx, 1, 1)
