"""Small matrix helpers, generic over the coefficient ring.

The same code paths serve scalar matrices over a PadicCtx and symbolic
matrices with LaurentPoly entries; a :class:`Ring` bundle supplies the ring
operations.  Each entry of a product is one ``Ring.dot``, a sum of products
that the scalar ring reduces once.  Determinants and adjugates use
division-free minor expansion (the matrices here are at most a handful of
rows), each row one ``Ring.dot`` against its signed minors; a scalar inverse
is the adjugate times the inverse of the determinant, which must be a unit
mod p.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import reduce

from .errors import SingularModP
from .laurent import LaurentPoly


# The ring operations, zero and one: dot(xs, ys) is sum x y over paired
# elements, reduced once; scal(k, a) is a times the plain int k.
Ring = namedtuple("Ring", "add sub mul neg zero one dot val scal")


def scalar_ring(ctx):
    return Ring(
        ctx.add, ctx.sub, ctx.mul, ctx.neg, ctx.zero(), ctx.one(),
        ctx.dot, ctx.val, lambda k, a: ctx.scal_int(a, k),
    )


def poly_ring(ctx, r, n):
    zero = LaurentPoly.zero(ctx, r, n)
    one = LaurentPoly.one(ctx, r, n)

    def dot(xs, ys):  # the sum of the products of nonzero left factors
        terms = (x * y for x, y in zip(xs, ys) if not x.is_zero())
        return reduce(operator.add, terms, next(terms, zero))

    return Ring(
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a: -a,
        zero,
        one,
        dot,
        lambda a: a.valuation(),
        lambda k, a: a.cmul(k),
    )


def identity(ring, g):
    return [
        [ring.one if i == j else ring.zero for j in range(g)] for i in range(g)
    ]


def mat_add(ring, A, B):
    return [[ring.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(ring, A, B):
    return [[ring.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scal(ring, c, A):
    return [[ring.mul(c, x) for x in row] for row in A]


def mat_mul(ring, A, B):
    cols = list(zip(*B))
    return [[ring.dot(row, col) for col in cols] for row in A]


def det(ring, A):
    """Laplace expansion along the first row, each row one dot against its
    signed minors, the minors memoized by their columns."""
    memo = {}

    def rec(row, cols):
        if len(cols) == 1:
            return A[row][cols[0]]
        got = memo.get(cols)
        if got is None:
            minors = [rec(row + 1, cols[:i] + cols[i + 1:])
                      for i in range(len(cols))]
            got = memo[cols] = ring.dot(
                [A[row][c] for c in cols],
                [ring.neg(x) if i & 1 else x for i, x in enumerate(minors)])
        return got

    return rec(0, tuple(range(len(A)))) if A else ring.one


def adjugate(ring, A):
    g = len(A)
    if g == 1:
        return [[ring.one]]
    out = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(g):
            minor = [
                [A[r][c] for c in range(g) if c != i]
                for r in range(g) if r != j
            ]
            m = det(ring, minor)
            out[i][j] = ring.neg(m) if (i + j) & 1 else m
    return out


def min_val(ring, A):
    vals = [ring.val(x) for row in A for x in row]
    return min(vals) if vals else None


def mat_inv_scalar(ctx, A):
    """Inverse adj(A) det(A)^-1 of a scalar matrix over Z/p^N; raises
    SingularModP unless det A is a unit."""
    ring = scalar_ring(ctx)
    d = det(ring, A)
    if not ctx.is_unit(d):
        raise SingularModP(f"determinant has valuation {ctx.val(d)} > 0")
    return mat_scal(ring, ctx.inv(d), adjugate(ring, A))


def mat_solve_scalar(ctx, A, B):
    """Solve A X = B for a unit-determinant square A."""
    return mat_mul(scalar_ring(ctx), mat_inv_scalar(ctx, A), B)
