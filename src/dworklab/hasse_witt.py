"""Hasse-Witt matrices of any level, symbolic in z or evaluated at a point.

For a Laurent polynomial F(t, z) with a single t variable, an ordered index
set Delta of size g, and a level m, the matrix is

    A(m, F) = ( coeff of t^(p^m * v - u) in F )_{u in Delta (rows), v (cols)}.

A matrix is a list of g rows.  Symbolic entries are z-polynomials;
evaluated entries are ring scalars read off the dense specialization F(t, a)
of a factored F by one rule (DenseCache): windows of c L^b read by the
base-p digits of b, for F and its quotients by one or two factors
(t - z_i) alike, never the whole expansion, ``hw_matrix_at`` included.

The verifiers read every matrix, and the ghost recursion every single
t-coefficient (``coeffs``), through a kit with one interface:
:class:`SymbolicKit` stands for the whole z-domain (entries through
``coeffs_t``, twisted by ``frobenius_sub`` and differentiated by
``partial_z`` entry by entry), :class:`PointKit` for one point a (ring
scalars at a and its twists a^(p^k), memoized by :class:`DenseCache`).
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from math import comb

from . import dense, ringmat
from .errors import (
    DirectionOutOfRange,
    InvalidParameter,
    NonUnitDifference,
    NotDivisible,
    NotFactored,
    SizeCapExceeded,
    UnsupportedArity,
)
from .laurent import SOFT_TERM_CAP, LaurentPoly


def _normalize_delta_ints(delta):
    out = []
    for d in delta:
        if isinstance(d, tuple):
            if len(d) != 1:
                raise UnsupportedArity("Hasse-Witt extraction needs r = 1")
            d = d[0]
        out.append(d)
    return tuple(out)


def hw_matrix(level, F, delta):
    """Symbolic Hasse-Witt matrix; entries are z-polynomials read off F."""
    if F.r != 1:
        raise UnsupportedArity("Hasse-Witt extraction needs r = 1")
    return _rows(F.coeffs_t(hw_indices(F.ctx.p, level, delta)), len(delta))


def _coeffs_at(ctx, offset, coeffs, indices):
    """Coefficients of t^idx in the dense (offset, coeffs), zero out of range."""
    zero = ctx.zero()
    return [coeffs[idx - offset] if 0 <= idx - offset < len(coeffs) else zero
            for idx in indices]


def hw_indices(p, level, delta):
    """The t-exponents p^level v - u of A(level, .), row by row."""
    delta = _normalize_delta_ints(delta)
    pm = p**level
    return [pm * v - u for u in delta for v in delta]


def _rows(flat, g):
    """The g x g matrix of a row-major list, such as the coefficients read
    at ``hw_indices``."""
    return [flat[i * g:(i + 1) * g] for i in range(g)]


def hw_matrix_at(level, F, delta, a):
    """Hasse-Witt matrix evaluated at the point a (z = a), read as a
    PointKit reads it: a window of c L^b if F is factored."""
    return PointKit(F.ctx, delta, a).A(level, F)


# hw_from_dense, hw_det and hw_inverse_at are per-layer metrics of
# BENCHMARK.json by name; ROADMAP item 8 decides their fate.
def hw_from_dense(ctx, level, offset, coeffs, delta):
    """A(level, F) at a point from the dense expansion (offset, coeffs) of
    F(t, a)."""
    return _rows(_coeffs_at(ctx, offset, coeffs,
                            hw_indices(ctx.p, level, delta)), len(delta))


def hw_det(ring, A):
    return ringmat.det(ring, A)


def hw_inverse_at(ctx, A):
    return ringmat.mat_inv_scalar(ctx, A)


def _conjugate(ctx, xs, j):
    """sigma^j of each element of the list xs."""
    return xs if j % ctx.m == 0 else list(zip(*ctx.sigma(
        dense.columns(ctx, xs), j)))


# n b <= 300 is expanded: der_p5_m2 took 1.27x the half split's time at 0, 0.82x at 300.
# Re-measured at m = 2 on ratio_p5_ext2 (median ms per run in process, two
# runs of 32): 47.0, 49.5 at 300; 47.2, 49.7 at 600; 49.2, 47.8 at 1000;
# 51.2, 60.1 at 100; 53.9, 78.2 at 0; 102.5, 101.4 at 1600 (L^310 expanded).
EXPAND_DEGREE = 300


class DenseCache:
    """Memo of the dense forms that F(t, a) is read off at a point a.

    A read of a factored F, or of its quotient by one or two factors
    (t - z_i), is c L^b: L = prod (t - a_i) over the factors left, b their
    least multiplicity rounded down to a multiple of p (F and its quotients
    share windows of L^b), c the short cofactor.  With L' = sigma(L)
    coefficientwise, X = L'(t^p) and D = L^p - X = 0 mod p (as sigma(c) =
    c^p mod p), J = N - 1 and b = r + p b1,

        L^b = B X^(b1 - J) mod p^N,  B = L^r sum_(j <= J) C(b1, j) D^j X^(J - j),

    so a window of L^b is a dot of B against sigma of a window of
    L^(b1 - J) on the same roots, read the same way, until b1 < N (the
    truncation drops nothing) or n b <= EXPAND_DEGREE, where L^b is
    expanded.  ``get`` keeps the expansion of an unfactored F.
    """

    def __init__(self):
        self._store, self._forms, self._powers = {}, {}, {}
        self._digit_terms, self._windows, self._cofactor = {}, {}, {}
        self._reads = {}

    def get(self, F, a):
        """The (offset, coeffs) expansion of F at the point a: equal
        factored forms share one entry."""
        key = (F.ctx, F.factored, tuple(a)) if F.factored is not None \
            else (id(F), tuple(a))
        if key not in self._store:
            self._forms[id(F)] = F
            self._store[key] = F.dense_t(a)
        return self._store[key]

    def _power(self, ctx, roots, e):
        """L^e, L = prod (t - r) over roots: L^d L^(e - d), d the nearest
        memoized exponent within p below e, else e // 2."""
        got = self._powers.get((ctx, roots, e))
        if got is None:
            d = next((d for d in range(e - 1, max(e - ctx.p, 0), -1)
                      if (ctx, roots, d) in self._powers), e // 2)
            got = self._powers[ctx, roots, e] = dense.dense_mul(
                ctx, self._power(ctx, roots, d),
                self._power(ctx, roots, e - d)) if e > 1 else \
                dense.dense_from_roots(ctx, [(r, e) for r in roots])
        return got

    def _digits(self, ctx, roots):
        """The terms D^j X^(J - j), j <= J, packed, of L' = sigma(L)."""
        got = self._digit_terms.get((ctx, roots))
        if got is None:
            got = self._digit_terms[ctx, roots] = dense.frobenius_terms(
                ctx, self._power(ctx, roots, ctx.p), [_conjugate(
                    ctx, self._power(ctx, roots, k), 1) for k in range(ctx.N)])
        return got

    def _window(self, ctx, roots, b, spans):
        """Per [lo, hi) in spans, 0 <= lo <= hi <= n b + 1, the columns of
        [t^k] L^b, lo <= k < hi: slices of L^b if expanded, else (B, the
        coefficients read so far), read by runs of consecutive k."""
        p, key = ctx.p, (ctx, roots, b)
        got = self._windows.get(key)
        if got is None:
            if b // p < ctx.N or len(roots) * b <= EXPAND_DEGREE:
                got = dense.columns(ctx, self._power(ctx, roots, b)), None
            else:
                ks = [comb(b // p, j) % ctx.q for j in range(ctx.N)]
                B = dense.combine_terms(ctx, ks, self._digits(ctx, roots))
                if b % p:
                    B = dense.columns(ctx, dense.dense_mul(
                        ctx, self._power(ctx, roots, b % p),
                        B[0] if ctx.m == 1 else list(zip(*B))))
                got = B, {}
            self._windows[key] = got
        B, memo = got
        if memo is None:
            return [[x[lo:hi] for x in B] for lo, hi in spans]
        b1, top = b // p - ctx.N + 1, len(B[0]) - 1
        n1 = len(roots) * b1
        todo = enumerate(sorted({k for lo, hi in spans for k in range(lo, hi)}
                                - memo.keys()))
        runs = [(run[0][1], run[-1][1] + 1) for run in (
            list(g) for _, g in groupby(todo, lambda ik: ik[1] - ik[0]))]
        # [t^k] L^b reads [t^i] .. [t^(j - 1)] of L'^b1, i = max(0, ceil((k
        # - top) / p)), j = min(k // p, n b1) + 1: one window per run
        reads = [(max(0, -((top - lo) // p)), min((hi - 1) // p, n1) + 1)
                 for lo, hi in runs]
        for (lo, hi), (i0, J), w in zip(runs, reads, self._window(
                ctx, roots, b1, reads) if runs else ()):
            w = [y[::-1] for y in ctx.sigma(w)]  # w[J - j:J - i]: t^(j - 1)..
            for k in range(lo, hi):
                i, j = max(i0, -((top - k) // p)), min(k // p, n1) + 1
                memo[k] = ctx.dot_columns(  # B_(k - p (j - 1)) .. B_(k - p i)
                    [x[k - p * j + p:k - p * i + 1:p] for x in B],
                    [y[J - j:J - i] for y in w])
        return [dense.columns(ctx, [memo[k] for k in range(lo, hi)])
                for lo, hi in spans]

    def quotient_coeffs(self, F, a, indices, divided=(), scale=1):
        """The plain int scale times the coefficients at indices of
        F / prod_(i in divided) (t - z_i) at the point a, zero out of range,
        for a factored F; zero, read off nothing, when scale = 0 mod q;
        NotDivisible if one is no factor."""
        if F.factored is None:
            raise NotFactored("quotients need a factored form")
        ctx = F.ctx
        if scale % ctx.q == 0:
            return [ctx.zero()] * len(indices)
        key = ctx, F.factored, tuple(a), tuple(sorted(divided))
        read = self._reads.get(key)
        if read is None:
            mult = dict(F.factored)
            for i in divided:
                mult[i] = mult.get(i, 0) - 1
                if mult[i] < 0:
                    raise NotDivisible(f"t - z_{i} does not divide the form")
            pairs = [(r, mult[i]) for (i, _), (r, _) in
                     zip(F.factored, F.roots_at(a)) if mult[i]]
            b = min((e for _, e in pairs), default=0)
            b -= b % ctx.p
            rest = ctx, tuple((r, e - b) for r, e in pairs)
            c = self._cofactor.get(rest)
            if c is None:  # reversed, so that each read is a slice
                c = self._cofactor[rest] = [x[::-1] for x in dense.columns(
                    ctx, dense.dense_from_roots(ctx, rest[1]))]
            read = self._reads[key] = tuple(r for r, _ in pairs), b, c
        roots, b, c = read
        width = len(c[0])
        spans = [(lo, max(lo, min(k + 1, len(roots) * b + 1))) for k, lo in
                 ((k, max(0, k - width + 1)) for k in indices)]
        out = [ctx.dot_columns(c if k >= width - 1 else [  # from c_k down
            x[width - 1 - k:] for x in c], w) for k, w in
            zip(indices, self._window(ctx, roots, b, spans))]
        return out if scale == 1 else [ctx.scal_int(x, scale) for x in out]


def check_direction(name, idx, n):
    if not 1 <= idx <= n:
        raise DirectionOutOfRange(
            f"{name} = {idx} is outside the z-directions 1..{n}")


def _factored_mult(F, z_index):
    if F.factored is None:
        raise NotFactored("operation needs a factored master-polynomial shape")
    check_direction("direction", z_index, F.n)
    return dict(F.factored).get(z_index, 0)


def hw_derivative_at(level, F, delta, a, v, cache):
    """Entries coeff_(p^level w - u)(dF/dz_v) at the point a, for factored
    F: dF/dz_v = -e_v F/(t - z_v), read through ``cache``."""
    return _rows(cache.quotient_coeffs(
        F, a, hw_indices(F.ctx.p, level, delta), [v], -_factored_mult(F, v)),
        len(delta))


def hw_second_derivative_at(level, F, delta, a, u, v, cache):
    """Second partials d2F/(dz_u dz_v) of a factored F at the point a:
    e_u (e_v - [u == v]) F/((t - z_u)(t - z_v)), whose scale vanishes
    unless the divisions are exact."""
    eu, ev = _factored_mult(F, u), _factored_mult(F, v)
    return _rows(cache.quotient_coeffs(
        F, a, hw_indices(F.ctx.p, level, delta), [u, v], eu * (ev - (u == v))),
        len(delta))


class _Kit:
    """What both kits state once: ``unit`` certifies each determinant and
    coordinate difference a statement clears by, and ``frame`` and
    ``frame_derivative`` are one read each through the kit's
    ``_quotients``."""

    def unit(self, d, error, message):
        """d, or error(message) with {v} its valuation if d = 0 mod p (over
        the symbolic kit: the z-polynomial d vanishes mod p)."""
        v = self.ring.val(d)
        if v > 0:
            raise error(message.format(v=v))
        return d

    def frame(self, F, indices):
        """Row i: the coefficients at indices of F/(t - z_i), i = 1..n."""
        return self._quotients(
            F, [([i], 1) for i in range(1, self.n + 1)], indices)

    def frame_derivative(self, F, i, indices):
        """Row k: the coefficients at indices of d(F/(t - z_k))/dz_i for a
        factored F, -(e_i - [k = i]) F/((t - z_i)(t - z_k)) with e_i the
        multiplicity of (t - z_i) in F; a zero row where the scale is
        0 mod q."""
        e = _factored_mult(F, i)
        return self._quotients(F, [([i, k], -(e - (k == i)))
                                   for k in range(1, self.n + 1)], indices)


class SymbolicKit(_Kit):
    """The verifiers' matrices over the whole z-domain: z-polynomial entries
    over ``ringmat.poly_ring`` with n variables.

    ``unit`` refuses a determinant that vanishes mod p, as the point kit
    refuses one that is no unit at its point.  Each A(level, F) is read
    once and shared by its twists and derivatives.

    The kit is its own size gate.  Before a read forms any term, the kit
    adds the terms it will form (``LaurentPoly.read_size``) to ``charged``;
    once that passes ``budget`` it raises SizeCapExceeded.  A statement
    reads all its entries before its first product, so a job is refused
    before any product is formed.
    """

    label = {}

    def __init__(self, ctx, delta, n, budget=SOFT_TERM_CAP):
        self.ctx, self.delta, self.n = ctx, delta, n
        self.ring = ringmat.poly_ring(ctx, 0, n)
        self.budget, self.charged = budget, 0
        self._read = {}

    def _charge(self, forms, indices):
        """Charge reads of the forms at the t-exponents ``indices``."""
        self.charged += sum(F.read_size(indices) for F in forms)
        if self.charged > self.budget:
            raise SizeCapExceeded(
                f"symbolic reads would form {self.charged} terms, past the "
                f"cap of {self.budget}; use pointwise mode")

    def _hw(self, level, F):
        key = (level, id(F))
        if key not in self._read:  # F is kept alive with its matrix
            self._charge([F], hw_indices(self.ctx.p, level, self.delta))
            self._read[key] = F, hw_matrix(level, F, self.delta)
        return self._read[key][1]

    def A(self, level, F, twist=0):
        return [[x.frobenius_sub(twist) for x in row]
                for row in self._hw(level, F)]

    def coeffs(self, F, indices, twist=0):
        """The z-polynomials at the t-exponents of F, twisted."""
        self._charge([F], indices)
        return [x.frobenius_sub(twist) for x in F.coeffs_t(indices)]

    def dA(self, level, F, v, twist=0):
        return [[x.partial_z(v).frobenius_sub(twist) for x in row]
                for row in self._hw(level, F)]

    def d2A(self, level, F, u, v):
        return [[x.partial_z(v).partial_z(u) for x in row]
                for row in self._hw(level, F)]

    def _quotients(self, F, reads, indices):
        """Per (divided, scale) in reads, scale times the coefficients at
        indices of F / prod_(i in divided) (t - z_i), a zero row read off
        nothing where scale = 0 mod q; all are charged before the first."""
        q = self.ctx.q
        forms = {k: reduce(lambda f, i: f.synth_div_linear(z_index=i), d, F)
                 for k, (d, c) in enumerate(reads) if c % q}
        self._charge(forms.values(), indices)
        return [[self.ring.scal(c, x) if c != 1 else x
                 for x in forms[k].coeffs_t(indices)] if k in forms
                else [self.ring.zero] * len(indices)
                for k, (_, c) in enumerate(reads)]

    def z(self, i, e=1):
        exps = [0] * self.n
        exps[i - 1] = e
        return LaurentPoly(self.ctx, 0, self.n, {tuple(exps): self.ctx.one()})


class PointKit(DenseCache, _Kit):
    """The verifiers' matrices at one point a, as scalars over Z/p^N.

    The kit is the memo of its point: A, its z-derivatives and the frames at
    a and at the twists a^(p^k) share windows and cofactors (one root tuple
    at a point fixed by sigma^m, ``_twisted``), and it keeps the inverses of
    the point's coordinate differences (``diff_inverse``).  ``unit`` raises
    when a determinant is not a unit at the point, so clearing by it keeps
    every valuation.  A missing point, or a coordinate neither an int nor an
    m-tuple, is refused.
    """

    def __init__(self, ctx, delta, a, index=0):
        if a is None or not all(isinstance(x, int) or isinstance(x, tuple)
                                and len(x) == ctx.m > 1 for x in a):
            raise InvalidParameter(f"point {index} is not a tuple of "
                                   f"elements of {ctx}: {a!r}")
        super().__init__()
        self.ctx, self.delta, self.n = ctx, delta, len(a)
        self.label = {"point_index": index}
        self._inv = {}
        self.ring = ringmat.scalar_ring(ctx)
        self._points = {0: tuple(ctx.from_int(x) if isinstance(x, int) else x
                                 for x in a)}

    def point(self, k):
        got = self._points.get(k)
        if got is None:
            got = self._points[k] = tuple(self.ctx.frob(x, 1)
                                          for x in self.point(k - 1))
        return got

    def _twisted(self, F, twist, read):
        """The rows read(a^(p^twist)): sigma^twist of read(a) for a factored F
        (integer coefficients) at a point where a^(p^m) = a."""
        a = self.point(0)
        if twist and F.factored is not None and self.point(self.ctx.m) == a:
            return [_conjugate(self.ctx, row, twist) for row in read(a)]
        return read(self.point(twist))

    def A(self, level, F, twist=0):
        """A(level, F) at the twisted point."""
        if F.factored is None:
            return hw_from_dense(self.ctx, level, *self.get(
                F, self.point(twist)), self.delta)
        return self._twisted(F, twist, lambda a: _rows(self.quotient_coeffs(
            F, a, hw_indices(self.ctx.p, level, self.delta)), len(self.delta)))

    def coeffs(self, F, indices, twist=0):
        """The coefficients at the t-exponents of F at the twisted point."""
        if F.factored is None:
            return _coeffs_at(self.ctx, *self.dense_W(F, twist), indices)
        return self._twisted(F, twist, lambda a: [
            self.quotient_coeffs(F, a, indices)])[0]

    def dA(self, level, F, v, twist=0):
        return self._twisted(F, twist, lambda a: hw_derivative_at(
            level, F, self.delta, a, v, self))

    def d2A(self, level, F, u, v):
        return hw_second_derivative_at(level, F, self.delta, self.point(0),
                                       u, v, self)

    def _quotients(self, F, reads, indices):
        """Per (divided, scale) in reads, ``quotient_coeffs`` at the point."""
        a = self.point(0)
        return [self.quotient_coeffs(F, a, indices, d, c) for d, c in reads]

    def z(self, i, e=1):
        return self.ctx.pow(self.point(0)[i - 1], e)

    def diff_inverse(self, i, k):
        """(a_i - a_k)^-1, certified by ``unit`` (NonUnitDifference): one
        inversion per unordered pair, since (a_k - a_i)^-1 = -(a_i - a_k)^-1."""
        ctx, a = self.ctx, self.point(0)
        lo, hi = min(i, k), max(i, k)
        inv = self._inv.get((lo, hi))
        if inv is None:
            inv = self._inv[lo, hi] = ctx.inv(self.unit(
                ctx.sub(a[lo - 1], a[hi - 1]), NonUnitDifference,
                f"z_{lo} - z_{hi} has valuation {{v}}"))
        return inv if i == lo else ctx.neg(inv)

    def dense_W(self, W, twist=0):
        """The expansion of W at the twisted point."""
        return self.get(W, self.point(twist))
