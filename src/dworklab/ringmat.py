"""Small matrix helpers, generic over the coefficient ring.

The same code paths serve scalar matrices over a PadicCtx and symbolic
matrices with LaurentPoly entries; a :class:`Ring` bundle supplies the ring
operations.  Determinants and adjugates use division-free minor expansion
(the matrices here are at most a handful of rows); a scalar inverse is the
adjugate times the inverse of the determinant, which must be a unit mod p.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import SingularModP
from .laurent import LaurentPoly


class Ring(NamedTuple):
    add: Callable
    sub: Callable
    mul: Callable
    neg: Callable
    zero: object
    one: object
    is_zero: Callable
    val: Callable
    scal: Callable  # scal(c, a): an element of the base ring PadicCtx times a


def scalar_ring(ctx):
    return Ring(
        ctx.add, ctx.sub, ctx.mul, ctx.neg, ctx.zero(), ctx.one(),
        ctx.is_zero, ctx.val, ctx.mul,
    )


def poly_ring(ctx, r, n):
    zero = LaurentPoly.zero(ctx, r, n)
    one = LaurentPoly.one(ctx, r, n)
    return Ring(
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a: -a,
        zero,
        one,
        lambda a: a.is_zero(),
        lambda a: a.valuation(),
        lambda c, a: a.cmul(c),
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
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(rows):
        row = []
        Ai = A[i]
        for j in range(cols):
            acc = None
            for k in range(inner):
                a = Ai[k]
                if ring.is_zero(a):
                    continue
                term = ring.mul(a, B[k][j])
                acc = term if acc is None else ring.add(acc, term)
            row.append(ring.zero if acc is None else acc)
        out.append(row)
    return out


def det(ring, A):
    g = len(A)
    if g == 0:
        return ring.one
    memo = {}

    def rec(row, cols):
        if len(cols) == 1:
            return A[row][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        acc = None
        for idx, c in enumerate(cols):
            entry = A[row][c]
            if ring.is_zero(entry):
                continue
            sub = rec(row + 1, cols[:idx] + cols[idx + 1:])
            term = ring.mul(entry, sub)
            if idx & 1:
                term = ring.neg(term)
            acc = term if acc is None else ring.add(acc, term)
        acc = ring.zero if acc is None else acc
        memo[cols] = acc
        return acc

    return rec(0, tuple(range(g)))


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
