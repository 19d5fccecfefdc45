"""Sparse multivariate Laurent polynomials over a PadicCtx.

Variables come in two blocks: r "t" variables followed by n "z" variables.
A polynomial is a map from exponent vectors (tuples of r + n signed ints) to
nonzero coefficients.  Master-polynomial shapes additionally carry a factored
form, the multiplicities of monic linear factors (t - z_i); the factored form
is load-bearing: products, powers, synthetic division and derivatives of
master polynomials never expand symbolically, coefficient reads (``coeffs_t``)
generate only the terms of the requested t-exponents, and specialization at a
point drops into the dense univariate kernels.

Full expansion (``terms``) and coefficient reads are guarded by a soft cap
on the terms they would form (SOFT_TERM_CAP); configurations beyond it must
use the pointwise pipeline.  ``read_size`` gives that count before a read,
so a caller can budget a sequence of reads: the symbolic kit of
``hasse_witt`` charges every read it makes, against SOFT_TERM_CAP for frames
read on their own and against SYMBOLIC_READ_CAP for verifier statements.

Products of expanded polynomials (cleared forms, ghosts, Phi identities) are
Kronecker-packed into ``dense.dense_mul`` when the packed box is at most
1/PACK_BOX_RATIO of the term pairs, else kept in a dict loop.  Operands
strided by p^k (Frobenius twists) pack only against one dense enough to
fill the box; operands of one to three terms never pack.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from . import dense
from .errors import (
    CtxMismatch,
    NonUnitAtNegativeExponent,
    NotDivisible,
    NotFactored,
    SizeCapExceeded,
    UnsupportedArity,
    ZeroPolynomial,
)
from .padic import json_int, power

SOFT_TERM_CAP = 10_000_000
# The reads of one symbolic verifier statement; the products after them
# grow with the reads, and past this they no longer finish in CLI time.
SYMBOLIC_READ_CAP = 300_000
PAIR_CAP = 60_000_000
# Products pack when box <= pairs / PACK_BOX_RATIO (see _packed_convolve).
# At (3, 5, 3, 1), 2-core Xeon: a twisted 15 x 678 one, box/pairs 0.28, takes
# 1.2 ms packed, 5.0 in the dict loop; a twisted 12 x 15, 8.9: 0.41 vs 0.14.
PACK_BOX_RATIO = 3


# Bounding box of the t-support (tuples lo, hi); the exact Newton polytope
# for r = 1.
TBox = namedtuple("TBox", "lo hi")


class LaurentPoly:
    __slots__ = ("ctx", "r", "n", "_terms", "factored")

    def __init__(self, ctx, r, n, terms=None, factored=None):
        if terms and set(map(len, terms)) != {r + n}:
            raise ValueError(f"an exponent key needs r + n = {r + n} entries")
        self.ctx = ctx
        self.r = r
        self.n = n
        self._terms = terms
        self.factored = factored  # sorted tuple of (z index, mult)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx, r, n):
        return cls(ctx, r, n, {})

    @classmethod
    def const(cls, ctx, r, n, c):
        if isinstance(c, int):
            c = ctx.from_int(c)
        if ctx.is_zero(c):
            return cls.zero(ctx, r, n)
        return cls(ctx, r, n, {(0,) * (r + n): c})

    @classmethod
    def one(cls, ctx, r, n):
        return cls.const(ctx, r, n, 1)

    @classmethod
    def from_factors(cls, ctx, n, factors):
        """Monic product of the (t - z_i)^e over the (i, e) in ``factors``,
        in the single t variable.  Repeated indices merge and multiplicities
        that are not positive drop, so equal products have equal keys.
        """
        merged = {}
        for i, e in factors:
            merged[i] = merged.get(i, 0) + e
        return cls(ctx, 1, n, None,
                   tuple(sorted((i, e) for i, e in merged.items() if e > 0)))

    # -- expansion ------------------------------------------------------------

    @property
    def terms(self):
        if self._terms is None:
            terms = {}
            deg = sum(e for _, e in self.factored)
            self._read_factored(dict.fromkeys(range(deg + 1), terms))
            self._terms = terms
        return self._terms

    def _read_factored(self, out):
        """Add the terms of t^k of the factored form to out[k], for every k
        in out, keyed by full exponent vectors (k, z-exponents).

        [t^k] prod_i (t - z_i)^e_i is the sum over j_1 + ... + j_n = k with
        0 <= j_i <= e_i of prod_i C(e_i, j_i) (-z_i)^(e_i - j_i).  The terms
        are generated one composition at a time, each j_i kept within what
        the later factors can still absorb, so only the requested t-slices
        are formed.

        Before any term is formed, the number of compositions behind the
        requested slices is counted; past SOFT_TERM_CAP the read raises
        SizeCapExceeded.
        """
        ctx, q = self.ctx, self.ctx.q
        fac = self.factored
        ks, size = self._plan(out)
        if size > SOFT_TERM_CAP:
            raise SizeCapExceeded(
                f"factored expansion would exceed {SOFT_TERM_CAP} terms"
            )
        rows = [[(-1) ** (e - j) * math.comb(e, j) % q for j in range(e + 1)]
                for _, e in fac]
        caps = [0] * (len(fac) + 1)
        for d in range(len(fac) - 1, -1, -1):
            caps[d] = caps[d + 1] + fac[d][1]
        exps = [0] * (1 + self.n)

        def walk(d, rem, c, part):
            i, e = fac[d]
            row = rows[d]
            if d == len(fac) - 1:  # the bounds above leave j = rem
                if w := c * row[rem] % q:
                    exps[i] = e - rem
                    part[tuple(exps)] = w
                return
            for j in range(max(0, rem - caps[d + 1]), min(e, rem) + 1):
                if w := c * row[j] % q:
                    exps[i] = e - j
                    walk(d + 1, rem - j, w, part)

        for k in set(ks):
            exps[0] = k
            part = {}
            if fac:
                walk(0, k, 1, part)
            else:
                part[tuple(exps)] = 1
            if ctx.m > 1:
                part = {key: ctx.from_int(c) for key, c in part.items()}
            out[k].update(part)

    def _plan(self, ks):
        """(t-exponents, composition count) of a read of the t^k slices of
        the factored form, k in ks: the exponents within the degree, and the
        number of terms the read forms at most, found by one prefix-sum pass
        per factor over prod_i (1 + x + ... + x^(e_i))."""
        deg = sum(e for _, e in self.factored)
        ks = [k for k in ks if 0 <= k <= deg]
        top = max(ks, default=0)
        count = [1] + [0] * top  # compositions of each k within the bounds
        for _, e in self.factored:
            pre = [0, *itertools.accumulate(count)]
            count = [pre[k + 1] - pre[max(0, k - e)] for k in range(top + 1)]
        return ks, sum(count[k] for k in ks)

    def read_size(self, indices):
        """Terms a ``coeffs_t`` read of the t-exponents ``indices`` forms at
        most: the compositions behind them, or, once expanded, the stored
        terms at those exponents."""
        keys = {(v,) if isinstance(v, int) else tuple(v) for v in indices}
        if self._terms is not None:
            return sum(key[:self.r] in keys for key in self._terms)
        return self._plan([v[0] for v in keys])[1]

    # -- basics -----------------------------------------------------------------

    def _check_compatible(self, other):
        if (
            self.ctx != other.ctx
            or self.r != other.r
            or self.n != other.n
        ):
            raise CtxMismatch("operands live in different rings")

    def is_zero(self):
        return not self.terms

    def copy_with(self, terms):
        return LaurentPoly(self.ctx, self.r, self.n, terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.r == other.r
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        k = "..." if self._terms is None else len(self._terms)
        return f"LaurentPoly(r={self.r}, n={self.n}, terms={k})"

    # -- ring ops ------------------------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, built in one copy of self's terms."""
        self._check_compatible(other)
        ctx = self.ctx
        out = dict(self.terms)
        if ctx.m == 1:
            q, get = ctx.q, out.get
            for key, c in other.terms.items():
                out[key] = (get(key, 0) + sign * c) % q
            for key in [k for k in other.terms if not out[k]]:
                del out[key]
            return self.copy_with(out)
        for key, c in other.terms.items():
            if sign < 0:
                c = ctx.neg(c)
            cur = out.get(key)
            v = c if cur is None else ctx.add(cur, c)
            if ctx.is_zero(v):
                out.pop(key, None)
            else:
                out[key] = v
        return self.copy_with(out)

    def __neg__(self):
        ctx = self.ctx
        return self.copy_with({k: ctx.neg(c) for k, c in self.terms.items()})

    def cmul(self, c):
        """Multiply by a ring element."""
        ctx = self.ctx
        if isinstance(c, int):
            c = ctx.from_int(c)
        if ctx.m == 1:
            q = ctx.q
            return self.copy_with({k: w for k, v in self.terms.items()
                                   if (w := v * c % q)})
        mul, is_zero = ctx.mul, ctx.is_zero
        return self.copy_with({k: w for k, v in self.terms.items()
                               if not is_zero(w := mul(v, c))})

    def __mul__(self, other):
        self._check_compatible(other)
        if self.factored is not None and other.factored is not None:
            return LaurentPoly.from_factors(self.ctx, self.n,
                                            self.factored + other.factored)
        return self.copy_with(_convolve(self.ctx, self.terms, other.terms))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers are not supported")
        if e == 0:
            return LaurentPoly.one(self.ctx, self.r, self.n)
        if self.factored is not None:
            return LaurentPoly(
                self.ctx, self.r, self.n, None,
                tuple((i, k * e) for i, k in self.factored),
            )
        return power(operator.mul, self, e)

    # -- structural ops -----------------------------------------------------------

    def frobenius_sub(self, k):
        """Substitute every variable x by x^(p^k): exponents scale by p^k."""
        if k == 0:
            return self
        s = self.ctx.p**k
        return self.copy_with(
            {tuple(e * s for e in key): c for key, c in self.terms.items()}
        )

    def coeffs_t(self, indices):
        """The z-polynomials (r = 0) at the t-exponents ``indices``, in order.

        An expanded polynomial is filtered; an unexpanded factored form is
        read term by term (see ``_read_factored``) and stays unexpanded.
        """
        keys = [(v,) if isinstance(v, int) else tuple(v) for v in indices]
        if any(len(v) != self.r for v in keys):
            raise UnsupportedArity("t-exponent arity mismatch")
        if self._terms is None:
            read = {v[0]: {} for v in keys}
            self._read_factored(read)
            found = {(k,): {key[1:]: c for key, c in d.items()}
                     for k, d in read.items()}
        else:
            found = {v: {} for v in keys}
            for key, c in self._terms.items():
                d = found.get(key[: self.r])
                if d is not None:
                    d[key[self.r:]] = c
        polys = {v: LaurentPoly(self.ctx, 0, self.n, d) for v, d in found.items()}
        return [polys[v] for v in keys]

    def partial_z(self, i):
        if not 1 <= i <= self.n:
            raise UnsupportedArity(f"z-index {i} out of range")
        ctx, pos = self.ctx, self.r + i - 1  # z_i's place in the key
        out = {}
        for key, c in self.terms.items():
            e = key[pos]
            if e == 0:
                continue
            w = ctx.scal_int(c, e)
            if not ctx.is_zero(w):
                out[key[:pos] + (e - 1,) + key[pos + 1:]] = w
        return self.copy_with(out)

    def eval_z(self, a):
        """Substitute z = a; the result keeps r and has no z variables."""
        ctx = self.ctx
        if len(a) != self.n:
            raise UnsupportedArity("point arity mismatch")
        a = [ctx.from_int(x) if isinstance(x, int) else x for x in a]
        powers = {}

        def zpow(i, e):
            key = (i, e)
            got = powers.get(key)
            if got is None:
                base = a[i]
                if e < 0:
                    if not ctx.is_unit(base):
                        raise NonUnitAtNegativeExponent(
                            f"coordinate {i + 1} is not a unit"
                        )
                    got = ctx.pow(ctx.inv(base), -e)
                else:
                    got = ctx.pow(base, e)
                powers[key] = got
            return got

        out = {}
        for key, c in self.terms.items():
            v = c
            for i in range(self.n):
                e = key[self.r + i]
                if e:
                    v = ctx.mul(v, zpow(i, e))
            if ctx.is_zero(v):
                continue
            tkey = key[: self.r]
            cur = out.get(tkey)
            v = v if cur is None else ctx.add(cur, v)
            if ctx.is_zero(v):
                out.pop(tkey, None)
            else:
                out[tkey] = v
        return LaurentPoly(ctx, self.r, 0, out)

    def synth_div_linear(self, z_index):
        """The factored form divided by (t - z_i), i = z_index."""
        if self.factored is None:
            raise NotFactored("synthetic division needs a factored form")
        fac = dict(self.factored)
        if z_index not in fac:
            raise NotDivisible("factor not present in the factored form")
        fac[z_index] -= 1
        return LaurentPoly.from_factors(self.ctx, self.n, fac.items())

    def newton_box(self):
        """Componentwise min/max of the t-exponents over the support."""
        if self.factored is not None:
            return TBox((0,), (sum(e for _, e in self.factored),))
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no Newton polytope")
        keys = [key[: self.r] for key in self.terms]
        lo = tuple(min(k[i] for k in keys) for i in range(self.r))
        hi = tuple(max(k[i] for k in keys) for i in range(self.r))
        return TBox(lo, hi)

    def valuation(self):
        ctx = self.ctx
        if ctx.m == 1:  # the gcd with q is p^(least valuation)
            return ctx.val(math.gcd(ctx.q, *self.terms.values()) % ctx.q)
        return min((ctx.val(c) for c in self.terms.values()), default=ctx.N)

    # -- dense bridge ------------------------------------------------------------

    def dense_t(self, a=None):
        """Dense coefficient list in t: returns (offset, coeffs).

        For n > 0 a point ``a`` is required and substituted first.  Factored
        forms expand through the dense kernels without touching the sparse
        representation.
        """
        if self.r != 1:
            raise UnsupportedArity("dense form needs a single t variable")
        ctx = self.ctx
        if self.factored is not None:
            return 0, dense.dense_from_roots(ctx, self.roots_at(a))
        poly = self.eval_z(a) if self.n else self
        if not poly.terms:
            return 0, []
        lo = min(k[0] for k in poly.terms)
        hi = max(k[0] for k in poly.terms)
        out = [ctx.zero()] * (hi - lo + 1)
        for key, c in poly.terms.items():
            out[key[0] - lo] = c
        return lo, out

    def roots_at(self, a):
        """(root, mult) pairs in t of the factored form at the point z = a."""
        if len(a) != self.n:
            raise UnsupportedArity("point arity mismatch")
        ctx = self.ctx
        a = [ctx.from_int(x) if isinstance(x, int) else x for x in a]
        return [(a[i - 1], e) for i, e in self.factored]

    # -- serialization -------------------------------------------------------------

    def to_json(self):
        ctx = self.ctx
        items = []
        for key in sorted(self.terms):
            c = self.terms[key]
            cval = str(c) if ctx.m == 1 else [str(x) for x in c]
            items.append(
                {"t": list(key[: self.r]), "z": list(key[self.r:]), "c": cval}
            )
        return {"r": self.r, "n": self.n, "terms": items}

    @classmethod
    def from_json(cls, ctx, data):
        r, n = json_int(data["r"]), json_int(data["n"])
        terms = {}
        for item in data["terms"]:
            if (len(item["t"]), len(item["z"])) != (r, n):
                raise ValueError(f"a term needs {r} t and {n} z exponents")
            key = tuple(map(json_int, item["t"])) + tuple(map(json_int, item["z"]))
            c = ctx.elem_from_json(item["c"])
            if not ctx.is_zero(c):
                terms[key] = c
        return cls(ctx, r, n, terms)


def _convolve(ctx, a, b):
    from operator import add as _iadd

    if len(a) > len(b):
        a, b = b, a
    # The box exceeds len(b) unless a has one term, so the box rule never
    # packs an operand of at most PACK_BOX_RATIO terms (nor an empty one).
    if len(a) > PACK_BOX_RATIO:
        out = _packed_convolve(ctx, a, b)
        if out is not None:
            return out
    if len(a) * len(b) > PAIR_CAP:
        raise SizeCapExceeded("product would exceed the convolution cap")
    out = {}
    if ctx.m == 1:
        q = ctx.q
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(_iadd, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        return {k: v2 for k, v in out.items() if (v2 := v % q)}
    mul, add, is_zero = ctx.mul, ctx.add, ctx.is_zero
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(_iadd, e1, e2))
            v = mul(c1, c2)
            cur = out.get(key)
            if cur is not None:
                v = add(cur, v)
            out[key] = v
    return {k: v for k, v in out.items() if not is_zero(v)}


def _packed_convolve(ctx, a, b):
    """a * b by Kronecker substitution, or None when its box is more than
    1/PACK_BOX_RATIO of the term pairs.  The box is capped at SOFT_TERM_CAP
    slots; PAIR_CAP caps only the dict loop.

    Each exponent, shifted by its operand's minimum, is one digit of an index
    whose radices are the output ranges, so the two dense lists multiply by
    ``dense.dense_mul`` without carries between digits; only the nonzero
    slots are unpacked.  The box is the product of the radices.  When both
    operands are homogeneous the variable of the widest range is dropped:
    the output degree fixes it.
    """
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lo_a, lo_b = [min(c) for c in cols_a], [min(c) for c in cols_b]
    ranges = [max(ca) - la + max(cb) - lb + 1
              for ca, cb, la, lb in zip(cols_a, cols_b, lo_a, lo_b)]
    kept = list(range(len(ranges)))
    deg_a, deg_b = set(map(sum, a)), set(map(sum, b))
    drop = None
    if len(deg_a) == len(deg_b) == 1:
        drop = max(kept, key=ranges.__getitem__)
        kept.remove(drop)
    radices = [ranges[i] for i in kept]
    box = math.prod(radices)
    if PACK_BOX_RATIO * box > len(a) * len(b):
        return None
    if box > SOFT_TERM_CAP:
        raise SizeCapExceeded("packed product would exceed the term cap")
    strides = [math.prod(radices[:i]) for i in range(len(kept))]
    zero = ctx.zero()

    def dense_list(terms, cols, lows):
        index = [0] * len(terms)
        for i, st in zip(kept, strides):
            lo = lows[i]
            index = [k + (e - lo) * st for k, e in zip(index, cols[i])]
        out = [zero] * (max(index) + 1)
        for k, c in zip(index, terms.values()):
            out[k] = c
        return out

    prod = dense.dense_mul(ctx, dense_list(a, cols_a, lo_a),
                           dense_list(b, cols_b, lo_b))
    slots = list(itertools.compress(
        range(len(prod)), prod if ctx.m == 1 else map(any, prod)))
    cols = [[k // st % rng + lo_a[i] + lo_b[i] for k in slots]
            for i, st, rng in zip(kept, strides, radices)]
    if drop is not None:
        rest = [deg_a.pop() + deg_b.pop()] * len(slots)
        for col in cols:
            rest = list(map(operator.sub, rest, col))
        cols.insert(drop, rest)
    return dict(zip(zip(*cols), [prod[k] for k in slots]))
