"""Domain enumeration and finite-precision limit certification.

Points live in the unramified extension of degree m, anchored at
Teichmueller lifts so the sigma twist acts by exponentiation without
precision loss.  Membership in the unit-determinant domain is a mod-p
condition on residues; the o-domain additionally demands pairwise distinct
residues, which keeps every Gaudin denominator integral.  Membership is
decided for batches of residue multisets at once: each F_{p^m} value of the
test is held as m plain-int columns with one entry per multiset, so the
interpreter's cost is paid per column and not per multiset.

The limits themselves are approximated by iterating the congruence ratios:
the valuation of consecutive differences must grow by at least one per
level (Dwork decay), which is the numerical shadow of the convergence
theorems.  One pass over one point kit forms every iterate, and the
certificates read that pass's record through the same kit.  A point's
report passes only when every decay profile does.
Certificates pass at valuation >= s_max - 1, one digit of headroom below
the raw expectation; raw valuations are always reported.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from functools import partial, reduce
from operator import add, mul

from . import ringmat
from .errors import ConfigError, InvalidParameter, OutsideDomain, TooLarge
from .hasse_witt import PointKit, hw_indices
from .kz import (
    KZConfig,
    gaudin_defect,
    master_polynomial,
    ps_solution_derivative,
    ps_solutions,
)
from .padic import ctx_new, power

EXHAUSTIVE_CAP = 10_000_000
# A scan keeps at most this many of its points.
POINT_CAP = 200_000
# Sampling first settles emptiness by scanning residue multisets when there
# are at most this many; without it an empty domain costs 10^4 draws per point.
EMPTY_CHECK_CAP = 2_000
# Membership classifies at most this many residue multisets per pass.
BATCH = 256


class DomainPoint:
    __slots__ = ("residues", "lift", "in_D", "in_D_o", "index")

    def __init__(self, residues, lift, in_D, in_D_o, index):
        self.residues = residues
        self.lift = lift  # None until lift_point attaches Teichmueller lifts
        self.in_D = in_D
        self.in_D_o = in_D_o
        self.index = index

    def to_json(self, residue_ctx):
        return {
            "index": self.index,
            "residues": [residue_ctx.elem_to_json(u) for u in self.residues],
            "in_D": self.in_D,
            "in_D_o": self.in_D_o,
        }


class ScanResult(namedtuple("ScanResult", "p g m mode total in_d_count "
                            "in_do_count degree_bound nonempty_bound points "
                            "seed")):
    __slots__ = ()

    def to_json(self, residue_ctx):
        return {
            "p": self.p,
            "g": self.g,
            "m": self.m,
            "mode": self.mode,
            "total": self.total,
            "in_D": self.in_d_count,
            "in_D_o": self.in_do_count,
            "det_degree": self.degree_bound,
            "nonempty_bound": self.nonempty_bound,
            "seed": self.seed,
            "points": [pt.to_json(residue_ctx) for pt in self.points],
        }


def det_degree(p, g):
    """Degree of det A(1, F) in z: (p - 1) g^2 / 2."""
    return (p - 1) * g * g // 2


def nonempty_bound(p, g, m):
    """Guaranteed number of unit-determinant residue tuples when p^m > d."""
    d = det_degree(p, g)
    pm = p**m
    n = 2 * g + 1
    if pm <= d:
        return None
    return (pm**n - 1) // (pm - 1) * (pm - 1 - d) + 1


class _Membership:
    """Unit-determinant membership of residue code tuples over F_{p^m}.

    Phi_1 is symmetric in z, so det A(1, Phi_1)(a) mod p depends only on the
    multiset of residues: it is evaluated once per sorted code tuple, at most
    C(p^m + n - 1, n) times however many ordered tuples are classified.
    ``unit_dets`` evaluates a batch of multisets in one pass, reading
    A(1, Phi_1) straight off the linear product L = prod (t - a_i):
    Phi_1 = L^e with e = (p - 1)/2, so its g^2 entries are a window of
    L^(e - 1) against L, and at precision 1 the determinant is a unit exactly
    when it is nonzero.

    A batch element (one F_{p^m} value per multiset) is a tuple of m columns,
    plain-int lists indexed by multiset, one per basis coefficient.  Every
    product runs element-wise down the columns; sums of products stay
    unreduced until one fold by ctx.fold and one reduction mod p
    per coefficient.
    """

    def __init__(self, p, g, m):
        self.ctx = ctx_new(p, 1, m)
        cfg = KZConfig(self.ctx, g)
        self.p, self.m = p, m
        self.n, self.g, self.e = cfg.n, g, cfg.exponent(1)
        self.indices = hw_indices(p, 1, cfg.delta)
        # digits[u][c]: the x^u coefficient of the residue with code c
        self.digits = [[c // p**u % p for c in range(p**m)] for u in range(m)]
        self.residues = self.digits[0] if m == 1 else list(zip(*self.digits))
        # terms[c]: the (u, v) with u + v = c, u, v < m, of a product's x^c
        self.terms = [[(u, c - u) for u in range(max(0, c - m + 1),
                                                 min(c, m - 1) + 1)]
                      for c in range(2 * m - 1)]
        self.memo = {}

    def classify(self, keys):
        """Memoize the verdicts of the sorted code tuples keys."""
        self.memo.update(zip(keys, self.unit_dets(keys)))

    def unit_dets(self, batch):
        """Whether det A(1, Phi_1) is a unit at the residues of each sorted
        code tuple of batch, in one pass over the batch."""
        zero = ([0] * len(batch),) * self.m
        one = ([1] * len(batch),) + zero[1:]
        first, *rest = ([[d[c] for c in codes] for d in self.digits]
                        for codes in zip(*batch))  # each multiset's i-th root
        L = [self._neg(first), one]
        for r in rest:
            L = self._times_root(L, r, zero, one)
        P = (power(partial(self._coeffs, zero=zero), L, self.e - 1)
             if self.e > 1 else [one])  # L^(e - 1), as dense_pow goes
        entries = self._coeffs(P, L, zero, self.indices)
        # the ring of batch elements, of which det reads only neg and dot
        ring = ringmat.Ring(None, None, None, self._neg, zero, one,
                            self._dot, None, None)
        g = self.g
        det = ringmat.det(ring, [entries[i * g:(i + 1) * g] for i in range(g)])
        return list(map(any, zip(*det)))

    def _times_root(self, L, r, zero, one):
        """L (t - r) for a monic L of degree d >= 1, coefficientwise:
        new[k] = old[k-1] - r old[k] below t^d, where at m = 2 r old[k]
        folds x^2 = -m0 - m1 x in place, then old[d-1] - r and 1."""
        lows, his = [zero] + L[:-2], L[:-1]
        # Closed form at m = 2: it gave domain_scan +16% (PR 29).
        if self.m == 2:
            p, (m0, m1, _), (r0, r1) = self.p, self.ctx.modulus, r
            f0, f1 = [m0 * x for x in r1], [m1 * x for x in r1]
            body = [([(lo - a * x + f * y) % p
                      for lo, a, x, f, y in zip(low0, r0, h0, f0, h1)],
                     [(lo - a * y - b * x + f * y) % p
                      for lo, a, b, x, f, y in zip(low1, r0, r1, h0, f1, h1)])
                    for (low0, low1), (h0, h1) in zip(lows, his)]
        else:
            body = [self._sub(low, self._dot((r,), (hi,)))
                    for low, hi in zip(lows, his)]
        return body + [self._sub(L[-2], r), one]

    def _coeffs(self, A, B, zero, ks=None):
        """Coefficients of t^k in A B at each k of ks (all of them by
        default), zero out of range."""
        la, lb = len(A), len(B)
        if ks is None:
            ks = range(la + lb - 1)
        return [self._dot(*zip(*[(A[i], B[k - i]) for i in range(
                    max(0, k - lb + 1), min(la, k + 1))]))
                if k < la + lb - 1 else zero for k in ks]

    def _dot(self, xs, ys):
        """sum x y over paired elements of the nonempty xs and ys, reduced:
        the products of each coefficient degree are summed unreduced, then
        fold once by ctx.fold, as in PadicCtx.dot."""
        p, m = self.p, self.m
        acc = [list(reduce(partial(map, add), [map(mul, x[u], y[v])
                                               for x, y in zip(xs, ys)
                                               for u, v in terms]))
               for terms in self.terms]
        for i, r, k in self.ctx.fold:
            acc[i] = [x + r * z for x, z in zip(acc[i], acc[k])]
        return tuple([x % p for x in col] for col in acc[:m])

    def _sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(u, v)]
                     for u, v in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple([-x % p for x in u] for u in a)

    def point(self, idx, codes, in_D, in_D_o):
        """The unlifted DomainPoint of a classified code tuple."""
        return DomainPoint(tuple(self.residues[c] for c in codes), None,
                           in_D, in_D_o, idx)


def _walk(member, draws, distinct_only=False):
    """(index, codes, in_D, in_D_o) of the code tuples of draws, in order;
    a tuple's index is its position in draws.  distinct_only skips tuples
    that cannot be in the o-domain before any membership lookup.  Callers
    build a DomainPoint only for the tuples they keep.

    Multisets not yet memoized are classified in batches.  A batch closes
    once it holds ``size`` new multisets, size doubling from 8 to BATCH, so
    that a caller that stops early has paid for few evaluations past its
    stop, or once BATCH tuples wait on it, so that a walk that mostly hits
    the memo holds few; the waiting tuples are yielded when it closes."""
    n, memo = member.n, member.memo
    size, fresh, waiting = 8, {}, []
    for idx, codes in enumerate(draws):
        distinct = len(set(codes)) == n
        if distinct_only and not distinct:
            continue
        key = tuple(sorted(codes))
        waiting.append((idx, codes, key, distinct))
        if key not in memo:
            fresh[key] = None
        if fresh and len(fresh) < size and len(waiting) < BATCH:
            continue
        if fresh:
            member.classify(list(fresh))
            fresh.clear()
            size = min(2 * size, BATCH)
        yield from _settled(memo, waiting)
        waiting = []
    if fresh:
        member.classify(list(fresh))
    yield from _settled(memo, waiting)


def _settled(memo, waiting):
    """_walk's tuples for the waiting (idx, codes, key, distinct)."""
    for idx, codes, key, distinct in waiting:
        ok = memo[key]
        yield idx, codes, ok, ok and distinct


def _random_tuples(seed, pm, n, count):
    """count tuples of n draws of random.Random(seed).randrange(pm), by its
    own rejection loop over getrandbits without its per-call checks."""
    bits, k = random.Random(seed).getrandbits, pm.bit_length()
    for _ in range(count):
        codes = []
        while len(codes) < n:
            r = bits(k)
            if r < pm:
                codes.append(r)
        yield tuple(codes)


def _multiset_counts(member):
    """(in_D, in_D_o) over every ordered code tuple, from one evaluation per
    multiset of codes, weighted by its n! / prod(mult!) orderings; a
    multiset of distinct codes is the one kind with all n! of them."""
    n = member.n
    fact = [math.factorial(k) for k in range(n + 1)]
    in_d = in_do = 0
    multisets = itertools.combinations_with_replacement(
        range(len(member.residues)), n)
    while batch := list(itertools.islice(multisets, BATCH)):
        for codes, ok in zip(batch, member.unit_dets(batch)):
            if ok:
                w = fact[n]
                for c in set(codes):
                    w //= fact[codes.count(c)]
                in_d += w
                if w == fact[n]:
                    in_do += w
    return in_d, in_do


def scan_domain(p, g, m, k=None, seed=None, keep_points=True):
    """Enumerate (k=None) or sample k residue tuples and flag domain
    membership.

    Membership in the unit-determinant domain depends only on residues, so
    the scan works at precision 1.  The exhaustive scan refuses more than
    10^7 ordered tuples; without keep_points it counts them from their
    multisets (``_multiset_counts``), with it it walks them in
    ``itertools.product`` order.  A sample draws its k tuples reproducibly
    from the seed, and refuses k beyond the same 10^7 before drawing.
    """
    member = _Membership(p, g, m)
    n = member.n
    pm = p**m
    d = det_degree(p, g)
    points = []
    in_d = in_do = 0
    if k is None:  # exhaustive: the seed has no use, and the report no seed
        mode, total, seed = "exhaustive", pm**n, None
        if total > EXHAUSTIVE_CAP:
            raise TooLarge(
                f"exhaustive scan over {total} tuples exceeds {EXHAUSTIVE_CAP}"
            )
        bound = nonempty_bound(p, g, m)
        if not keep_points:
            in_d, in_do = _multiset_counts(member)
            return ScanResult(p, g, m, mode, total, in_d, in_do, d, bound,
                              points, seed)
        draws = itertools.product(range(pm), repeat=n)
    else:
        if k < 1:
            raise ConfigError(f"sample mode needs k >= 1 tuples, got {k}")
        if k > EXHAUSTIVE_CAP:
            raise TooLarge(f"sample of {k} tuples exceeds {EXHAUSTIVE_CAP}")
        mode, total, bound = "sample", k, None
        draws = _random_tuples(seed, pm, n, k)
    for idx, codes, ok, ok_o in _walk(member, draws):
        if ok:
            in_d += 1
            in_do += ok_o
        if keep_points and len(points) < POINT_CAP:
            points.append(member.point(idx, codes, ok, ok_o))
    return ScanResult(p, g, m, mode, total, in_d, in_do, d, bound,
                      points, seed)


def lift_point(point, ctx, lifted=None):
    """Attach Teichmueller lifts in the working context; lifted, a dict
    from residue to lift, is read and filled in if given."""
    lifted = {} if lifted is None else lifted
    for u in point.residues:
        if u not in lifted:
            lifted[u] = ctx.teichmueller(ctx.from_coeffs(
                u if isinstance(u, tuple) else (u,)))
    return DomainPoint(point.residues, tuple(map(lifted.get, point.residues)),
                       point.in_D, point.in_D_o, point.index)


def _require_nonempty(member):
    """Raise OutsideDomain when a small residue space has no o-domain point.

    Membership depends only on the multiset of residues, so the scan walks
    sets of n distinct residues, stops at the first member and draws nothing
    from the sampler's generator.
    """
    pm, n = len(member.residues), member.n
    total = math.comb(pm, n)
    sets = _walk(member, itertools.combinations(range(pm), n))
    if total <= EMPTY_CHECK_CAP and not any(ok for _, _, ok, _ in sets):
        raise OutsideDomain(
            f"the o-domain is empty: none of the {total} sets of {n} "
            f"distinct residues over F_{pm} is in it")


def _sampled_points(p, g, m, count, seed):
    """The first count o-domain points of the seed's draws, unlifted and
    indexed by acceptance; at most 10^4 draws per point.  Like a scan's
    sample, it refuses count beyond 10^7 before drawing."""
    if count < 1:
        raise ConfigError(f"need at least one domain point, got {count}")
    if count > EXHAUSTIVE_CAP:
        raise TooLarge(f"sample of {count} points exceeds {EXHAUSTIVE_CAP}")
    member = _Membership(p, g, m)
    _require_nonempty(member)
    draws = _random_tuples(seed, p**m, member.n, 10_000 * count)
    accepted = (codes for _, codes, ok, _ in
                _walk(member, draws, distinct_only=True) if ok)
    out = [member.point(i, codes, True, True)
           for i, codes in zip(range(count), accepted)]
    if len(out) < count:
        raise OutsideDomain("sampling failed to find enough domain points")
    return out


def sample_domain_points(p, g, m, count, seed, ctx):
    """Reproducibly sample lifted points of the o-domain: domain points
    with pairwise distinct residues.  Each distinct residue is lifted once
    per call."""
    lifted = {}
    return [lift_point(pt, ctx, lifted)
            for pt in _sampled_points(p, g, m, count, seed)]


def nth_domain_point(p, g, m, k, seed, ctx):
    """The k-th o-domain point (from 0), lifted into ctx.

    Residue tuples are walked lazily in itertools.product order and the walk
    stops at the k-th o-domain point, whose index is its position in the
    full enumeration.  Beyond EXHAUSTIVE_CAP tuples the point is the k-th
    reproducible sample of sample_domain_points instead, and only it is
    lifted; there k + 1 beyond EXHAUSTIVE_CAP is refused before drawing.
    """
    if k < 0:
        raise ConfigError(f"point index {k} must be >= 0")
    n = 2 * g + 1
    if (p**m)**n > EXHAUSTIVE_CAP:
        return lift_point(_sampled_points(p, g, m, k + 1, seed)[k], ctx)
    member = _Membership(p, g, m)
    found = 0
    ordered = itertools.product(range(p**m), repeat=n)
    for idx, codes, _, ok_o in _walk(member, ordered, distinct_only=True):
        if ok_o:
            if found == k:
                return lift_point(member.point(idx, codes, True, True), ctx)
            found += 1
    raise ConfigError(f"point index {k} out of range ({found} points)")


# ---------------------------------------------------------------------------
# limit iteration


class Certificate(namedtuple("Certificate",
                             "name passed threshold observed details")):
    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _check_s_max(ctx, s_max):
    if s_max < 2:
        raise ConfigError(
            f"s_max must be >= 2, got {s_max}: a decay needs two iterates")
    if ctx.N < s_max + 1:
        raise InvalidParameter("precision must satisfy N >= s_max + 1")


def _level_matrix_inv(cfg, lev, kit, twist=0):
    """A(lev, Phi_lev) at the kit's point twisted, and its inverse."""
    A = kit.A(lev, master_polynomial(cfg, lev), twist)
    d = kit.unit(ringmat.det(kit.ring, A), OutsideDomain,
                 f"det A({lev}, Phi_{lev}) has valuation {{v}}")
    return A, ringmat.mat_scal(kit.ring, cfg.ctx.inv(d),
                               ringmat.adjugate(kit.ring, A))


def _frame(cfg, s, kit):
    """J_s = I_s A(s, Phi_s)^-1 at the kit's point."""
    _, Ainv = _level_matrix_inv(cfg, s, kit)
    return ringmat.mat_mul(kit.ring, ps_solutions(cfg, s, kit), Ainv)


def _decay(ring, seq):
    """Per level, the least valuation of a consecutive difference of the
    iterates in seq, each a {key: matrix} dict."""
    return [min(ringmat.min_val(ring, ringmat.mat_sub(ring, now[i], was[i]))
                for i in now) for was, now in zip(seq, seq[1:])]


def limit_frames(cfg, point, s_max, kit):
    """The four iterations at the kit's point, in one pass over s = 1..s_max:

    R_(s-1) = A(s, Phi_s)(a) A(s-1, Phi_(s-1))(a^p)^-1 (R_0 = A(1, Phi_1)),
    J_s = I_s A(s, Phi_s)^-1, K_s^(i) = (dI_s/dz_i) A(s, Phi_s)^-1 and
    B_s^(i) = (d A(s, Phi_s)/dz_i) A(s, Phi_s)^-1.

    Each (level, twist) inverse is formed once.  The valuations of
    consecutive differences must be >= s + 1 at index s; summed, they give
    J_s = J_1 mod p.  The last iterates approximate the limits to p^s_max.
    """
    ctx, ring = cfg.ctx, kit.ring
    _check_s_max(ctx, s_max)
    if not point.in_D:
        raise OutsideDomain("point is outside the unit-determinant domain")
    if not point.in_D_o:
        raise OutsideDomain("point is outside the residue-distinct o-domain")
    dirs = range(1, cfg.n + 1)
    ratios, J_seq, K_seq, B_seq = [], [], [], []
    for s in range(1, s_max + 1):
        phi = master_polynomial(cfg, s)
        A, Ainv = _level_matrix_inv(cfg, s, kit)
        ratios.append(A if s == 1 else ringmat.mat_mul(
            ring, A, _level_matrix_inv(cfg, s - 1, kit, twist=1)[1]))
        J_seq.append(ringmat.mat_mul(ring, ps_solutions(cfg, s, kit), Ainv))
        K_seq.append({i: ringmat.mat_mul(
            ring, ps_solution_derivative(cfg, s, i, kit), Ainv) for i in dirs})
        B_seq.append({i: ringmat.mat_mul(ring, kit.dA(s, phi, i), Ainv)
                      for i in dirs})
    return {
        "ratios": ratios,
        "det_valuations": [ctx.val(ringmat.det(ring, R)) for R in ratios],
        "decay_A": _decay(ring, [{0: R} for R in ratios]),
        "J_seq": J_seq,
        "decay_J": _decay(ring, [{0: J} for J in J_seq]),
        "decay_K": _decay(ring, K_seq),
        "decay_B": _decay(ring, B_seq),
        "A": ratios[-1],
        "I": J_seq[-1],
        "I_dirs": K_seq[-1],
        "A_dirs": B_seq[-1],
    }


def _unit_minor(cfg, M):
    """(v, rows) for the n x g matrix M: v the valuation of its g x g minor
    in the preferred rows 1, 3, ..., 2g-1, and rows giving a unit minor, the
    preferred ones when v = 0, else the first unit combination (None if no
    minor is a unit).  Each minor is formed at most once."""
    ctx, ring = cfg.ctx, ringmat.scalar_ring(cfg.ctx)
    preferred = tuple(range(0, 2 * cfg.g - 1, 2))
    v = ctx.val(ringmat.det(ring, [M[r] for r in preferred]))
    if v == 0:
        return v, preferred
    others = (rows for rows in itertools.combinations(range(cfg.n), cfg.g)
              if rows != preferred)
    return v, next((rows for rows in others if ctx.is_unit(
        ringmat.det(ring, [M[r] for r in rows]))), None)


def kz_certificates(cfg, point, s_max, frag, kit):
    """The two KZ certificates of the limits in frag, from one defect set
    D_i = K^(i) - H_i J, with H_i the Gaudin action by the kit's certified
    inverses (a_i - a_k)^-1.

    kz-gaudin-match: D_i = 0 entrywise to valuation >= s_max - 1.

    kz-invariant-span: the finite-level covariant derivative is
    KD_i = K^(i) - J B^(i) - H_i J (the middle term is the exact derivative
    of the inverse).  Solving KD_i = J C on a unit minor J_r of J gives
    C + B^(i) = J_r^-1 (D_i)_r and KD_i - J C = D_i - J J_r^-1 (D_i)_r
    exactly, so the span observes the Gaudin match's valuation at every
    point (both print the same per_direction), and the recovery valuation
    is the least valuation of the D_i on the minor's rows.
    """
    ctx, ring, J = cfg.ctx, kit.ring, frag["I"]
    half = (ctx.q + 1) // 2
    _, rows = _unit_minor(cfg, J)
    threshold = s_max - 1
    per_dir = {}
    span = recovery = ctx.N
    for i in range(1, cfg.n + 1):
        halves = {k: ring.scal(half, kit.diff_inverse(i, k))
                  for k in range(1, cfg.n + 1) if k != i}
        D = gaudin_defect(ring, i, frag["I_dirs"][i], J, ring.one, halves)
        per_dir[i] = ringmat.min_val(ring, D)
        if rows is not None:
            B = frag["A_dirs"][i]
            KD = ringmat.mat_sub(ring, D, ringmat.mat_mul(ring, J, B))
            C = ringmat.mat_solve_scalar(ctx, [J[r] for r in rows],
                                         [KD[r] for r in rows])
            recovery = min(recovery, ringmat.min_val(
                ring, ringmat.mat_add(ring, C, B)))
            span = min(span, ringmat.min_val(ring, ringmat.mat_sub(
                ring, KD, ringmat.mat_mul(ring, J, C))))
    gaudin = min(ctx.N, *per_dir.values())
    span = min(gaudin, span)
    return [
        Certificate("kz-gaudin-match", gaudin >= threshold, threshold, gaudin,
                    {"per_direction": per_dir, "point_index": point.index}),
        Certificate("kz-invariant-span", span >= threshold, threshold, span, {
            "per_direction": per_dir,
            "coefficient_recovery_valuation": recovery,
            "minor_rows": list(rows) if rows is not None else None,
            "point_index": point.index,
        }),
    ]


def rank_check(cfg, point, M):
    """Certificate that the limit frame has rank g modulo p.

    Checks the g x g minor of M = J_1 = I_1(a) A(1, Phi_1)(a)^-1 at the
    point in rows 1, 3, ..., 2g-1 first; any other unit minor still
    certifies full rank.
    """
    if not point.in_D:
        raise OutsideDomain("point is outside the unit-determinant domain")
    v, rows = _unit_minor(cfg, M)
    details = {
        "preferred_rows": list(range(0, 2 * cfg.g - 1, 2)),
        "preferred_minor_valuation": v,
        "point_index": point.index,
    }
    if v == 0:
        return Certificate("rank-g-minor", True, 0, 0, details)
    details["fallback_rows"] = list(rows) if rows is not None else None
    passed = rows is not None
    return Certificate("rank-g-minor", passed, 0, 0 if passed else v, details)


class LimitReport(namedtuple("LimitReport",
                             "cfg point s_max frag certificates")):
    __slots__ = ()

    @property
    def passed(self):
        """The verdict: each of the four decay profiles is >= s + 1 at index
        s, every ratio determinant is a unit and every certificate passes."""
        frag = self.frag
        return (all(v >= s + 1 for name in ("decay_A", "decay_J", "decay_K",
                                            "decay_B")
                    for s, v in enumerate(frag[name]))
                and all(v == 0 for v in frag["det_valuations"])
                and all(c.passed for c in self.certificates))

    def to_json(self):
        ctx, frag = self.cfg.ctx, self.frag

        def mat(M):
            return [[ctx.elem_to_json(x) for x in row] for row in M]

        return {
            "point_index": self.point.index,
            "s_max": self.s_max,
            "A_decay": frag["decay_A"],
            "A_det_valuations": frag["det_valuations"],
            "A": mat(frag["A"]),
            "I_decay": frag["decay_J"],
            "I_dirs_decay": frag["decay_K"],
            "A_dirs_decay": frag["decay_B"],
            "I": mat(frag["I"]),
            "certificates": [c.to_json() for c in self.certificates],
            "ctx": ctx.to_json(),
        }


def limit_report(cfg, point, s_max):
    """Full per-point pipeline, every read through one kit: the limit
    iteration and its decay profiles, then every certificate."""
    kit = PointKit(cfg.ctx, cfg.delta, point.lift, point.index)
    frag = limit_frames(cfg, point, s_max, kit)
    certs = [*kz_certificates(cfg, point, s_max, frag, kit),
             rank_check(cfg, point, frag["J_seq"][0])]
    return LimitReport(cfg, point, s_max, frag, certs)
