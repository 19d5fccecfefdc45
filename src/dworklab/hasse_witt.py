"""Hasse-Witt matrices of any level, symbolic in z or evaluated at a point.

For a Laurent polynomial F(t, z) with a single t variable, an ordered index
set Delta of size g, and a level m, the matrix is

    A(m, F) = ( coeff of t^(p^m * v - u) in F )_{u in Delta (rows), v (cols)}.

Symbolic entries are z-polynomials; evaluated entries are ring scalars
extracted from the dense specialization F(t, a), which is where factored
master polynomials pay off: one dense expansion serves the whole matrix and,
through synthetic division, all of its z-derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dense, ringmat
from .errors import (
    DirectionOutOfRange,
    NotFactored,
    SingularModP,
    UnsupportedArity,
)


@dataclass
class HWMatrix:
    ctx: object
    level: int
    delta: tuple
    entries: list
    pointwise: bool
    source: str = ""

    @property
    def g(self):
        return len(self.delta)

    def ring(self):
        if self.pointwise:
            return ringmat.scalar_ring(self.ctx)
        sample = self.entries[0][0]
        return ringmat.poly_ring(self.ctx, sample.r, sample.n)

    def min_valuation(self):
        return ringmat.min_val(self.ring(), self.entries)

    def to_json(self):
        if self.pointwise:
            ent = [[self.ctx.elem_to_json(x) for x in row] for row in self.entries]
        else:
            ent = [[x.to_json() for x in row] for row in self.entries]
        return {
            "level": self.level,
            "delta": list(self.delta),
            "pointwise": self.pointwise,
            "entries": ent,
        }


def _normalize_delta_ints(delta):
    out = []
    for d in delta:
        if isinstance(d, tuple):
            if len(d) != 1:
                raise UnsupportedArity("Hasse-Witt extraction needs r = 1")
            d = d[0]
        out.append(d)
    return tuple(out)


def hw_matrix(level, F, delta, source=""):
    """Symbolic Hasse-Witt matrix; entries are z-polynomials read off F."""
    if F.r != 1:
        raise UnsupportedArity("Hasse-Witt extraction needs r = 1")
    return _hw_read(F.ctx, level, delta, F.coeffs_t, source, pointwise=False)


def _coeffs_at(ctx, offset, coeffs, indices):
    """Coefficients of t^idx in the dense (offset, coeffs), zero out of range."""
    zero = ctx.zero()
    return [coeffs[idx - offset] if 0 <= idx - offset < len(coeffs) else zero
            for idx in indices]


def _hw_read(ctx, level, delta, read, source, pointwise=True):
    """A(level, F) from read(indices) -> the coefficients of F at those
    t-exponents: ring scalars of F(t, a), or z-polynomials."""
    delta = _normalize_delta_ints(delta)
    pm = ctx.p**level
    g = len(delta)
    flat = read([pm * v - u for u in delta for v in delta])
    entries = [flat[i * g:(i + 1) * g] for i in range(g)]
    return HWMatrix(ctx, level, delta, entries, pointwise, source)


def hw_from_dense(ctx, level, offset, coeffs, delta, source=""):
    return _hw_read(ctx, level, delta,
                    lambda idx: _coeffs_at(ctx, offset, coeffs, idx), source)


def hw_matrix_at(level, F, delta, a, source=""):
    """Hasse-Witt matrix evaluated at the point a (z = a)."""
    off, co = F.dense_t(a)
    return hw_from_dense(F.ctx, level, off, co, delta, source)


def hw_eval(Aw, a):
    """Point evaluation of a symbolic matrix (consistency path)."""
    entries = [[entry.eval_z(a).eval_all([], []) for entry in row] for row in Aw.entries]
    return HWMatrix(Aw.ctx, Aw.level, Aw.delta, entries, True, Aw.source)


def hw_sigma(Aw, k=1):
    """Frobenius twist z -> z^(p^k) of a symbolic matrix."""
    if Aw.pointwise:
        raise UnsupportedArity("twist pointwise matrices by evaluating at a^(p^k)")
    entries = [[entry.frobenius_sub(k) for entry in row] for row in Aw.entries]
    return HWMatrix(Aw.ctx, Aw.level, Aw.delta, entries, False, Aw.source)


def hw_partial_z(Aw, i):
    entries = [[entry.partial_z(i) for entry in row] for row in Aw.entries]
    return HWMatrix(Aw.ctx, Aw.level, Aw.delta, entries, False, Aw.source)


def hw_det(Aw):
    return ringmat.det(Aw.ring(), Aw.entries)


def hw_inverse_at(Aw):
    if not Aw.pointwise:
        raise UnsupportedArity("symbolic inverses are handled by clearing denominators")
    det = hw_det(Aw)
    if not Aw.ctx.is_unit(det):
        raise SingularModP(
            f"determinant has valuation {Aw.ctx.val(det)} > 0"
        )
    inv = ringmat.mat_inv_scalar(Aw.ctx, Aw.entries)
    return HWMatrix(Aw.ctx, Aw.level, Aw.delta, inv, True, Aw.source)


class DenseCache:
    """Memo of dense specializations F(t, a) and of their linear quotients.

    ``get`` keeps the (offset, coeffs) expansion of F at the point a, keyed by
    the factored form and the point.  ``hw_at`` reads A(level, F) at a: from
    that expansion when it is stored, otherwise from the half split
    F(t, a) = R^2 T (R with the halved multiplicities, T with their parities,
    kept under the same key) when R is past dense_mul's schoolbook cutoff, so
    that only g^2 coefficients of the square are formed.  A later ``get``
    builds the expansion as R R T from a stored split.  ``quotient`` keeps the
    exact quotient of the expansion by (t - root), keyed by (factored form,
    point, root), so the frames I_s, their z-derivatives and the derivatives
    of A(s, F) at one point share n synthetic divisions.  ``diff_inverse``
    keeps the inverses of the point's coordinate differences.  Unfactored F
    is never memoized.
    """

    def __init__(self):
        self._store = {}
        self._half = {}
        self._quot = {}
        self._inv = {}

    @staticmethod
    def _key(F, a):
        return (F.ctx, F.factored, a) if F.factored is not None else None

    def get(self, F, a):
        a = tuple(a)
        key = self._key(F, a)
        if key is not None:
            got = self._store.get(key)
            if got is not None:
                return got
            half = self._half.pop(key, None)
            if half is not None:
                R, T = half
                full = dense.dense_mul(F.ctx, R, R)
                if len(T) > 1:
                    full = dense.dense_mul(F.ctx, full, T)
                got = self._store[key] = 0, full
                return got
        val = F.dense_t(a)
        if key is not None:
            self._store[key] = val
        return val

    def hw_at(self, level, F, delta, a, source=""):
        """A(level, F) at the point a, through the cheapest stored form."""
        a = tuple(a)
        ctx = F.ctx
        key = self._key(F, a)
        if key is not None and key not in self._store:
            half = self._half.get(key)
            if half is None:
                pairs = F.roots_at(a)
                if 1 + sum(e // 2 for _, e in pairs) > dense.school_cutoff(ctx):
                    half = self._half[key] = dense.dense_half_split(ctx, pairs)
            if half is not None:
                return _hw_read(ctx, level, delta,
                                lambda idx: dense.dense_half_coeffs(ctx, *half, idx),
                                source)
        return hw_from_dense(ctx, level, *self.get(F, a), delta, source)

    def quotient(self, F, a, root):
        """(offset, coeffs) of F(t, a) / (t - root); NotDivisible if inexact."""
        a = tuple(a)
        key = (F.ctx, F.factored, a, root) if F.factored is not None else None
        got = self._quot.get(key) if key is not None else None
        if got is None:
            off, co = self.get(F, a)
            got = off, dense.dense_div_linear_exact(F.ctx, co, root)
            if key is not None:
                self._quot[key] = got
        return got

    def diff_inverse(self, ctx, a, i, k):
        """(a_i - a_k)^-1 over ctx: one inversion per unordered pair, since
        (a_k - a_i)^-1 = -(a_i - a_k)^-1."""
        lo, hi = min(i, k), max(i, k)
        key = (ctx, tuple(a), lo, hi)
        inv = self._inv.get(key)
        if inv is None:
            inv = self._inv[key] = ctx.inv(ctx.sub(a[lo - 1], a[hi - 1]))
        return inv if i == lo else ctx.neg(inv)


def check_direction(name, idx, n):
    if not 1 <= idx <= n:
        raise DirectionOutOfRange(
            f"{name} = {idx} is outside the z-directions 1..{n}")


def _factored_mult(F, z_index):
    if F.factored is None:
        raise NotFactored("operation needs a factored master-polynomial shape")
    check_direction("direction", z_index, F.n)
    for (kind, val), e in F.factored:
        if kind == "z" and val == z_index:
            return e
    return 0


def _scaled(Aw, k):
    """Aw with its entries times the integer k: g^2 products, not one per
    coefficient of the quotient."""
    Aw.entries = ringmat.mat_scal(Aw.ring(), Aw.ctx.from_int(k), Aw.entries)
    return Aw


def hw_derivative_at(level, F, delta, a, v, cache=None, source=""):
    """Entries coeff_(p^level w - u)(dF/dz_v) at the point a, for factored F.

    dF/dz_v = -e_v * F / (t - z_v) when (t - z_v) occurs with multiplicity
    e_v, so one synthetic division of the cached dense form suffices.
    """
    ctx = F.ctx
    ev = _factored_mult(F, v)
    delta = _normalize_delta_ints(delta)
    if ev % ctx.q == 0:
        g = len(delta)
        zero = ctx.zero()
        return HWMatrix(ctx, level, delta, [[zero] * g for _ in range(g)], True, source)
    cache = cache or DenseCache()
    off, quot = cache.quotient(F, a, a[v - 1])
    return _scaled(hw_from_dense(ctx, level, off, quot, delta, source), -ev)


def hw_second_derivative_at(level, F, delta, a, u, v, cache=None, source=""):
    """Second partials d2F/(dz_u dz_v) of a factored F, at the point a.

    With multiplicities e_u, e_v this is e_u (e_v - [u == v]) * F divided by
    (t - z_u)(t - z_v); the diagonal case needs multiplicity >= 2.
    """
    ctx = F.ctx
    eu = _factored_mult(F, u)
    ev = _factored_mult(F, v)
    factor = eu * (ev - 1) if u == v else eu * ev
    delta = _normalize_delta_ints(delta)
    if factor % ctx.q == 0 or eu == 0 or ev == 0:
        g = len(delta)
        zero = ctx.zero()
        return HWMatrix(ctx, level, delta, [[zero] * g for _ in range(g)], True, source)
    cache = cache or DenseCache()
    off, quot = cache.quotient(F, a, a[u - 1])
    quot = dense.dense_div_linear_exact(ctx, quot, a[v - 1])
    return _scaled(hw_from_dense(ctx, level, off, quot, delta, source), factor)
