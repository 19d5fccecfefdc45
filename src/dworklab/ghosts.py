"""Ghost sequences and Delta-admissibility of polynomial tuples.

Given a tuple (L_0, ..., L_l) of Laurent polynomials, the products

    W_s        = L_0 * L_1^p * ... * L_s^(p^s)
    W_s^(j)    = L_j * L_{j+1}^p * ... * L_s^(p^(s-j))

decompose through Frobenius twists by way of the ghost polynomials V_s,
defined recursively by

    V_s(x) = W_s(x) - sum_{j=1..s} V_{j-1}(x) * W_s^(j)(x^(p^j)),

with V_0 = L_0.  Every coefficient of V_s is divisible by p^s, which is the
engine behind all congruence verifiers in this package.

Admissibility of a tuple of t-support boxes with respect to a finite set
Delta is decided exactly by interval arithmetic; for infinite constant
tuples the q-ranges are monotone in the window length, so the check detects
stabilization and returns a verdict valid for every window.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import (
    CtxMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NotAdmissible,
    PrecisionTooLow,
    UnsupportedArity,
)
from .laurent import LaurentPoly
from .padic import check_prime

ENUM_CAP = 100_000
_STAB_HARD_CAP = 10_000


# complete: True when valid for all window lengths; witness: a dict or None.
AdmissibilityCertificate = namedtuple(
    "AdmissibilityCertificate", "ok complete checked_depth witness",
    defaults=(None,))


class AdmissibleTuple:
    """A tuple of Laurent polynomials with its admissibility certificate.

    ``periodic=True`` means the infinite tuple obtained by repeating
    ``lams`` cyclically; the finite case is the tuple itself.
    """

    def __init__(self, lams, delta, periodic=False):
        self.lams = tuple(lams)
        if not self.lams:
            raise InvalidParameter("a tuple needs at least one member")
        first = self.lams[0]
        for lam in self.lams:
            if (lam.ctx, lam.r, lam.n) != (first.ctx, first.r, first.n):
                raise CtxMismatch("tuple members live in different rings")
        self.delta = normalize_delta(delta, first.r)
        self.periodic = periodic
        self.certificate = check_admissible(self.lams, self.delta,
                                            first.ctx.p, periodic)
        self._w_cache = {}

    @property
    def ctx(self):
        return self.lams[0].ctx

    @property
    def g(self):
        return len(self.delta)

    @property
    def n(self):
        return self.lams[0].n

    def lam(self, idx):
        if idx < 0:
            raise IndexOutOfRange(f"index {idx} is negative")
        if self.periodic:
            return self.lams[idx % len(self.lams)]
        if idx >= len(self.lams):
            raise IndexOutOfRange(f"index {idx} exceeds tuple length")
        return self.lams[idx]

    def require_admissible(self):
        if not self.certificate.ok:
            raise NotAdmissible(f"tuple is not admissible: {self.certificate.witness}")

    def W(self, s, j=0):
        """The product L_j * L_{j+1}^p * ... * L_s^(p^(s-j))."""
        if not 0 <= j <= s:
            raise IndexOutOfRange(f"need 0 <= j <= s, got j={j}, s={s}")
        if not self.periodic and s >= len(self.lams):
            raise IndexOutOfRange(f"s={s} exceeds tuple length")
        key = (s, j)
        got = self._w_cache.get(key)
        if got is None:
            p = self.ctx.p
            got = self.lam(j)
            for k in range(j + 1, s + 1):
                got = got * (self.lam(k) ** (p ** (k - j)))
            self._w_cache[key] = got
        return got


GhostSeq = namedtuple("GhostSeq", "tup V min_vals")


def ghost_sequence(tup, l):
    """Compute V_0, ..., V_l; working precision must satisfy N >= l.

    ``min_vals[s]`` is the valuation of V_s.  Divisibility by p^min(s, N) is
    left for the caller to judge, so a violation can be reported.
    """
    ctx = tup.ctx
    if ctx.N < l:
        raise PrecisionTooLow(
            f"precision N={ctx.N} cannot witness divisibility up to p^{l}"
        )
    V = []
    for s in range(l + 1):
        acc = tup.W(s, 0)
        # force expansion once so the subtraction below stays sparse
        acc = LaurentPoly(ctx, acc.r, acc.n, dict(acc.terms))
        for j in range(1, s + 1):
            twisted = tup.W(s, j).frobenius_sub(j)
            acc = acc - (V[j - 1] * twisted)
        V.append(acc)
    return GhostSeq(tup, V, [v.valuation() for v in V])


# ---------------------------------------------------------------------------
# admissibility


def normalize_delta(delta, r):
    out = []
    for d in delta:
        if isinstance(d, int):
            if r != 1:
                raise UnsupportedArity("integer Delta elements need r = 1")
            out.append((d,))
        else:
            d = tuple(d)
            if len(d) != r:
                raise UnsupportedArity("Delta element arity mismatch")
            out.append(d)
    if not out:
        raise InvalidParameter("Delta must be nonempty")
    return tuple(sorted(set(out)))


def _ceil_div(a, b):
    return -((-a) // b)


def _first_outside(ranges, dset):
    """The first point of the lattice box prod(ranges), in lexicographic
    order, that is not in dset, or None; boxes past ENUM_CAP are refused."""
    total = math.prod(map(len, ranges))
    if total > ENUM_CAP:
        raise UnsupportedArity(
            f"window enumeration needs {total} lattice points (cap {ENUM_CAP})"
        )
    return next((q for q in itertools.product(*ranges) if q not in dset), None)


def _window_ok(boxes, delta, p, i, j, lam_at):
    """Check one window (N_i, ..., N_j); returns None or a witness dict."""
    r = len(delta[0])
    w = j - i + 1
    pw = p**w
    lo = [0] * r
    hi = [0] * r
    scale = 1
    for k in range(i, j + 1):
        box = lam_at(k)
        for d in range(r):
            lo[d] += scale * box.lo[d]
            hi[d] += scale * box.hi[d]
        scale *= p
    dset = set(delta)
    for dl in delta:
        bad = _first_outside([range(_ceil_div(dl[d] + lo[d], pw),
                                    (dl[d] + hi[d]) // pw + 1)
                              for d in range(r)], dset)
        if bad is not None:
            return {"i": i, "j": j, "delta": dl, "q": bad}
    return None


def _constant_ok(box, delta, p):
    """All-window check for the constant infinite tuple (N, N, ...)."""
    r = len(delta[0])
    dset = set(delta)
    limits = []
    for dl in delta:
        per_dim = []
        for d in range(r):
            # the q-range tends to [lo, hi] / (p - 1); an integer end is
            # never reached when dl lies strictly inside it
            lim_lo = _ceil_div(box.lo[d], p - 1)
            lim_hi = box.hi[d] // (p - 1)
            if box.lo[d] % (p - 1) == 0 and dl[d] > lim_lo:
                lim_lo += 1
            if box.hi[d] % (p - 1) == 0 and dl[d] < lim_hi:
                lim_hi -= 1
            per_dim.append((lim_lo, lim_hi))
        limits.append(per_dim)
    w = 0
    pw = 1
    S = 0
    while True:
        w += 1
        S += pw  # S_w = 1 + p + ... + p^(w-1)
        pw *= p
        all_stable = True
        for dl, per_dim in zip(delta, limits):
            ranges = []
            for d in range(r):
                qlo = _ceil_div(dl[d] + box.lo[d] * S, pw)
                qhi = (dl[d] + box.hi[d] * S) // pw
                if (qlo, qhi) != per_dim[d]:
                    all_stable = False
                ranges.append(range(qlo, qhi + 1))
                if qhi < qlo:
                    break
            bad = _first_outside(ranges, dset)
            if bad is not None:
                return False, w, {"window_length": w, "delta": dl, "q": bad}
        if all_stable:
            return True, w, None
        if w > _STAB_HARD_CAP:
            raise UnsupportedArity("stabilization not reached")


def check_admissible(items, delta, p, periodic=False, depth=8):
    """Decide Delta-admissibility of a tuple of Laurent polynomials, by
    their Newton boxes, or of a tuple of t-support ``TBox``es.

    For a finite tuple the windows (i, j) with 0 <= i <= j < l are checked
    exactly.  For the infinite constant tuple the verdict covers all window
    lengths (stabilization); other periodic patterns are checked up to
    ``depth`` and flagged as depth-bounded.
    """
    check_prime(p)
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    boxes = [f.newton_box() if isinstance(f, LaurentPoly) else f
             for f in items]
    delta = normalize_delta(delta, len(boxes[0].lo))
    if not periodic:
        l = len(boxes) - 1
        for i in range(l):
            for j in range(i, l):
                bad = _window_ok(boxes, delta, p, i, j, lambda k: boxes[k])
                if bad is not None:
                    return AdmissibilityCertificate(False, True, l, bad)
        return AdmissibilityCertificate(True, True, l)
    if all(b == boxes[0] for b in boxes):
        ok, w, witness = _constant_ok(boxes[0], delta, p)
        return AdmissibilityCertificate(ok, True, w, witness)
    f = len(boxes)
    for i in range(f):
        for length in range(1, depth + 1):
            j = i + length - 1
            bad = _window_ok(
                boxes, delta, p, i, j, lambda k: boxes[k % f]
            )
            if bad is not None:
                return AdmissibilityCertificate(False, False, depth, bad)
    return AdmissibilityCertificate(True, False, depth)
