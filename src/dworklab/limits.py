"""Domain enumeration and finite-precision limit certification.

Points live in the unramified extension of degree m, anchored at
Teichmueller lifts so the sigma twist acts by exponentiation without
precision loss.  Membership in the unit-determinant domain is a mod-p
condition on residues; the o-domain additionally demands pairwise distinct
residues, which keeps every Gaudin denominator integral.

The limits themselves are approximated by iterating the congruence ratios:
the valuation of consecutive differences must grow by at least one per
level (Dwork decay), which is the numerical shadow of the convergence
theorems.  A point's report passes only when every decay profile does.
Certificates pass at valuation >= s_max - 1, one digit of headroom below
the raw expectation; raw valuations are always reported.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace

from . import ringmat
from .errors import (
    ConfigError,
    InvalidParameter,
    NonUnitDifference,
    OutsideDomain,
    TooLarge,
)
from .hasse_witt import PointKit, hw_det, hw_matrix_at
from .kz import (
    KZConfig,
    gaudin_action,
    master_polynomial,
    ps_solution_derivative,
    ps_solutions,
)
from .padic import ctx_new

EXHAUSTIVE_CAP = 10_000_000
# Sampling first settles emptiness by scanning residue multisets when there
# are at most this many; without it an empty domain costs 10^4 draws per point.
EMPTY_CHECK_CAP = 2_000


@dataclass
class DomainPoint:
    residues: tuple
    lift: tuple | None
    in_D: bool
    in_D_o: bool
    index: int

    def to_json(self, residue_ctx):
        return {
            "index": self.index,
            "residues": [residue_ctx.elem_to_json(u) for u in self.residues],
            "in_D": self.in_D,
            "in_D_o": self.in_D_o,
        }


@dataclass
class ScanResult:
    p: int
    g: int
    m: int
    mode: str
    total: int
    in_d_count: int
    in_do_count: int
    degree_bound: int
    nonempty_bound: int | None
    points: list = field(default_factory=list)
    seed: int | None = None

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


def _residue_from_index(ctx1, idx):
    if ctx1.m == 1:
        return idx
    digits = []
    for _ in range(ctx1.m):
        digits.append(idx % ctx1.p)
        idx //= ctx1.p
    return tuple(digits)


class _Membership:
    """Unit-determinant membership of residue code tuples over F_{p^m}.

    Phi_1 is symmetric in z, so det A(1, Phi_1)(a) mod p depends only on the
    multiset of residues: it is evaluated once per sorted code tuple, at most
    C(p^m + n - 1, n) times however many ordered tuples are classified.
    """

    def __init__(self, p, g, m):
        self.ctx = ctx_new(p, 1, m)
        cfg = KZConfig(self.ctx, g)
        self.n, self.delta = cfg.n, cfg.delta
        self.phi = master_polynomial(cfg, 1)
        self.residues = [_residue_from_index(self.ctx, c) for c in range(p**m)]
        self._memo = {}

    def __call__(self, codes):
        key = tuple(sorted(codes))
        ok = self._memo.get(key)
        if ok is None:
            a = tuple(self.residues[c] for c in key)
            Aw = hw_matrix_at(1, self.phi, self.delta, a)
            ok = self._memo[key] = self.ctx.is_unit(hw_det(Aw))
        return ok


def _walk(member, draws, distinct_only=False):
    """Classify the code tuples of draws in order; a point's index is its
    position in draws.  distinct_only skips tuples that cannot be in the
    o-domain before any membership lookup."""
    n, residues = member.n, member.residues
    for idx, codes in enumerate(draws):
        distinct = len(set(codes)) == n
        if distinct_only and not distinct:
            continue
        ok = member(codes)
        yield DomainPoint(tuple(residues[c] for c in codes), None, ok,
                          ok and distinct, idx)


def _random_tuples(seed, pm, n, count):
    rng = random.Random(seed)
    return (tuple(rng.randrange(pm) for _ in range(n)) for _ in range(count))


def scan_domain(p, g, m, mode="exhaustive", k=None, seed=None,
                keep_points=True, point_cap=200_000):
    """Enumerate or sample residue tuples and flag domain membership.

    Membership in the unit-determinant domain depends only on residues, so
    the scan works at precision 1.  Exhaustive mode refuses more than 10^7
    tuples; sample mode draws k tuples reproducibly from the given seed.
    """
    member = _Membership(p, g, m)
    n = member.n
    pm = p**m
    d = det_degree(p, g)
    points = []
    in_d = in_do = 0
    if mode == "exhaustive":
        total = pm**n
        if total > EXHAUSTIVE_CAP:
            raise TooLarge(
                f"exhaustive scan over {total} tuples exceeds {EXHAUSTIVE_CAP}"
            )
        draws = itertools.product(range(pm), repeat=n)
        bound = nonempty_bound(p, g, m)
        seed_used = None
    else:
        if k is None or k < 1:
            raise ConfigError(f"sample mode needs k >= 1 tuples, got {k}")
        total = k
        draws = _random_tuples(seed, pm, n, k)
        bound = None
        seed_used = seed
    for pt in _walk(member, draws):
        if pt.in_D:
            in_d += 1
            in_do += pt.in_D_o
        if keep_points and len(points) < point_cap:
            points.append(pt)
    return ScanResult(p, g, m, mode, total, in_d, in_do, d, bound,
                      points, seed_used)


def lift_point(point, ctx):
    """Attach Teichmueller lifts in the working context."""
    lifts = tuple(ctx.teichmueller(ctx.from_coeffs(
        u if isinstance(u, tuple) else (u,))) for u in point.residues)
    return DomainPoint(point.residues, lifts, point.in_D, point.in_D_o,
                       point.index)


def _require_nonempty(member, distinct):
    """Raise OutsideDomain when a small residue space has no (o-)domain point.

    Membership depends only on the multiset of residues, so the scan walks
    multisets, stops at the first member and draws nothing from the
    sampler's generator.
    """
    pm, n = len(member.residues), member.n
    total = math.comb(pm, n) if distinct else math.comb(pm + n - 1, n)
    if total > EMPTY_CHECK_CAP:
        return
    multisets = (itertools.combinations if distinct
                 else itertools.combinations_with_replacement)(range(pm), n)
    if any(pt.in_D for pt in _walk(member, multisets)):
        return
    raise OutsideDomain(
        f"the {'o-' if distinct else ''}domain is empty: none of the {total} "
        f"residue multisets of size {n} over F_{pm} is in it")


def sample_domain_points(p, g, m, count, seed, ctx, require_distinct=True):
    """Reproducibly sample lifted points of the (o-)domain."""
    if count < 1:
        raise ConfigError(f"need at least one domain point, got {count}")
    member = _Membership(p, g, m)
    _require_nonempty(member, require_distinct)
    draws = _random_tuples(seed, p**m, member.n, 10_000 * count)
    out = []
    for pt in _walk(member, draws, distinct_only=require_distinct):
        if pt.in_D:
            out.append(lift_point(replace(pt, index=len(out)), ctx))
            if len(out) == count:
                return out
    raise OutsideDomain("sampling failed to find enough domain points")


def nth_domain_point(p, g, m, k, seed, ctx):
    """The k-th o-domain point (from 0), lifted into ctx.

    Residue tuples are walked lazily in itertools.product order and the walk
    stops at the k-th o-domain point, whose index is its position in the
    full enumeration.  Beyond EXHAUSTIVE_CAP tuples the point is the k-th
    reproducible sample of sample_domain_points instead.
    """
    if k < 0:
        raise ConfigError(f"point index {k} must be >= 0")
    n = 2 * g + 1
    if (p**m)**n > EXHAUSTIVE_CAP:
        return sample_domain_points(p, g, m, k + 1, seed, ctx)[k]
    member = _Membership(p, g, m)
    found = 0
    ordered = itertools.product(range(p**m), repeat=n)
    for pt in _walk(member, ordered, distinct_only=True):
        if pt.in_D_o:
            if found == k:
                return lift_point(pt, ctx)
            found += 1
    raise ConfigError(f"point index {k} out of range ({found} points)")


# ---------------------------------------------------------------------------
# limit iteration


@dataclass
class Certificate:
    name: str
    passed: bool
    threshold: int
    observed: int
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "threshold": self.threshold,
            "observed": self.observed,
            "details": self.details,
        }


def _check_s_max(ctx, s_max):
    if s_max < 2:
        raise ConfigError(
            f"s_max must be >= 2, got {s_max}: a decay needs two iterates")
    if ctx.N < s_max + 1:
        raise InvalidParameter("precision must satisfy N >= s_max + 1")


def _level_matrix_inv(cfg, lev, kit, twist=0):
    """A(lev, Phi_lev) at the kit's point twisted, and its inverse."""
    A = kit.A(lev, master_polynomial(cfg, lev), twist)
    kit.unit(ringmat.det(kit.ring, A), OutsideDomain,
             f"det A({lev}, Phi_{lev}) not a unit")
    return A, ringmat.mat_inv_scalar(cfg.ctx, A)


def _frame(cfg, s, kit):
    """J_s = I_s A(s, Phi_s)^-1 at the kit's point, and A(s, Phi_s)^-1."""
    _, Ainv = _level_matrix_inv(cfg, s, kit)
    I = ps_solutions(cfg, s, kit)
    return ringmat.mat_mul(kit.ring, I.entries, Ainv), Ainv


def _point_kit(cfg, point):
    return PointKit(cfg.ctx, cfg.delta, point.lift)


def _decay(ring, seq):
    """Per level, the least valuation of a consecutive difference of the
    iterates in seq, each a {key: matrix} dict."""
    return [min(ringmat.min_val(ring, ringmat.mat_sub(ring, now[i], was[i]))
                for i in now) for was, now in zip(seq, seq[1:])]


def limit_A(cfg, point, s_max, kit=None):
    """Iterate R_s = A(s+1, Phi_{s+1})(a) A(s, Phi_s)(a^p)^-1, s = 0..s_max-1.

    Valuations of consecutive differences must be >= s+1; every ratio has a
    unit determinant.  The last iterate approximates the limit matrix to
    p^(s_max).
    """
    ctx = cfg.ctx
    _check_s_max(ctx, s_max)
    if not point.in_D:
        raise OutsideDomain("point is outside the unit-determinant domain")
    sring = ringmat.scalar_ring(ctx)
    kit = kit or _point_kit(cfg, point)
    ratios = []
    det_vals = []
    for s in range(s_max):
        R, _ = _level_matrix_inv(cfg, s + 1, kit)
        if s > 0:
            _, inv = _level_matrix_inv(cfg, s, kit, twist=1)
            R = ringmat.mat_mul(sring, R, inv)
        ratios.append(R)
        det_vals.append(ctx.val(ringmat.det(sring, R)))
    return {
        "ratios": ratios,
        "decay": _decay(sring, [{0: R} for R in ratios]),
        "det_valuations": det_vals,
        "A": ratios[-1],
    }


def limit_I(cfg, point, s_max, kit=None):
    """Iterate the three frame sequences at a Teichmueller point:

    J_s = I_s A(s, Phi_s)^-1, K_s^(i) = (dI_s/dz_i) A(s, Phi_s)^-1 and
    B_s^(i) = (d A(s, Phi_s)/dz_i) A(s, Phi_s)^-1, for s = 1..s_max.
    Differences of consecutive iterates must have valuation >= s; summed,
    they give J_s = J_1 mod p.
    """
    ctx = cfg.ctx
    _check_s_max(ctx, s_max)
    if not point.in_D_o:
        raise OutsideDomain("point is outside the residue-distinct o-domain")
    sring = ringmat.scalar_ring(ctx)
    kit = kit or _point_kit(cfg, point)
    J_seq, K_seq, B_seq = [], [], []
    for s in range(1, s_max + 1):
        phi = master_polynomial(cfg, s)
        J, Ainv = _frame(cfg, s, kit)
        J_seq.append(J)
        K = {}
        B = {}
        for i in range(1, cfg.n + 1):
            dI = ps_solution_derivative(cfg, s, i, kit)
            K[i] = ringmat.mat_mul(sring, dI, Ainv)
            B[i] = ringmat.mat_mul(sring, kit.dA(s, phi, i), Ainv)
        K_seq.append(K)
        B_seq.append(B)
    return {
        "J_seq": J_seq,
        "K_seq": K_seq,
        "B_seq": B_seq,
        "decay_J": _decay(sring, [{0: J} for J in J_seq]),
        "decay_K": _decay(sring, K_seq),
        "decay_B": _decay(sring, B_seq),
        "I": J_seq[-1],
        "I_dirs": K_seq[-1],
        "A_dirs": B_seq[-1],
    }


def _gaudin_defects(cfg, point, frag):
    """K^(i) - H_i J for each direction i, from the limits in frag: the
    Gaudin action by the inverses (a_i - a_k)^-1 at the point."""
    ctx, a = cfg.ctx, point.lift
    ring = ringmat.scalar_ring(ctx)
    half = ctx.inv(ctx.from_int(2))
    defects = {}
    for i in range(1, cfg.n + 1):
        diffs = {k: ctx.sub(a[i - 1], a[k - 1])
                 for k in range(1, cfg.n + 1) if k != i}
        for k, d in diffs.items():
            if not ctx.is_unit(d):
                raise NonUnitDifference(f"z_{i} - z_{k} has valuation "
                                        f"{ctx.val(d)} at the point")
        inverses = {k: ctx.inv(d) for k, d in diffs.items()}
        defects[i] = ringmat.mat_sub(ring, frag["I_dirs"][i], gaudin_action(
            ring, i, frag["I"], half, inverses))
    return defects


def verify_kz_mc(cfg, point, s_max, frag=None):
    """Certificate that the direction limits are the Gaudin action:
    K^(i) = H_i J entrywise to valuation >= s_max - 1."""
    ctx = cfg.ctx
    frag = frag or limit_I(cfg, point, s_max)
    defects = _gaudin_defects(cfg, point, frag)
    sring = ringmat.scalar_ring(ctx)
    per_dir = {i: ringmat.min_val(sring, D) for i, D in defects.items()}
    observed = min(ctx.N, *per_dir.values())
    threshold = s_max - 1
    return Certificate(
        "kz-gaudin-match", observed >= threshold, threshold, observed,
        {"per_direction": per_dir, "point_index": point.index},
    )


def _unit_minor_rows(cfg, M):
    """Rows giving a unit g x g minor of the n x g matrix M, preferring
    rows 1, 3, ..., 2g-1; falls back to any unit combination."""
    ctx = cfg.ctx
    sring = ringmat.scalar_ring(ctx)
    g = cfg.g
    preferred = tuple(range(0, 2 * g - 1, 2))
    for rows in itertools.chain(
        [preferred], itertools.combinations(range(cfg.n), g)
    ):
        sub = [M[r] for r in rows]
        if ctx.is_unit(ringmat.det(sring, sub)):
            return rows
    return None


def verify_invariance(cfg, point, s_max, frag=None):
    """Certificate that the KZ covariant derivative of the frame stays in
    the frame's column span with coefficient matrix -B^(i).

    The finite-level covariant derivative is KD_i = K^(i) - J B^(i) - H_i J
    (the middle term is the exact derivative of the inverse); the check is
    KD_i + J B^(i) = K^(i) - H_i J = 0 to valuation >= s_max - 1, plus
    recovery of the coefficients by solving on a unit minor.
    """
    ctx = cfg.ctx
    frag = frag or limit_I(cfg, point, s_max)
    defects = _gaudin_defects(cfg, point, frag)
    sring = ringmat.scalar_ring(ctx)
    J = frag["I"]
    rows = _unit_minor_rows(cfg, J)
    threshold = s_max - 1
    observed = ctx.N
    recovery = ctx.N
    per_dir = {}
    for i in range(1, cfg.n + 1):
        B = frag["A_dirs"][i]
        KD = ringmat.mat_sub(sring, defects[i], ringmat.mat_mul(sring, J, B))
        v = ringmat.min_val(sring, defects[i])
        per_dir[i] = v
        observed = min(observed, v)
        if rows is not None:
            # solve KD = J C on the unit rows; expect C = -B^(i)
            sub = [J[r] for r in rows]
            rhs = [KD[r] for r in rows]
            C = ringmat.mat_solve_scalar(ctx, sub, rhs)
            against = ringmat.mat_add(sring, C, B)
            recovery = min(recovery, ringmat.min_val(sring, against))
            full = ringmat.mat_sub(sring, KD, ringmat.mat_mul(
                sring, J, C))
            observed = min(observed, ringmat.min_val(sring, full))
    return Certificate(
        "kz-invariant-span", observed >= threshold, threshold, observed,
        {
            "per_direction": per_dir,
            "coefficient_recovery_valuation": recovery,
            "minor_rows": list(rows) if rows is not None else None,
            "point_index": point.index,
        },
    )


def rank_check(cfg, point, frag=None):
    """Certificate that the limit frame has rank g modulo p.

    Checks the g x g minor of J_1 = I_1(a) A(1, Phi_1)(a)^-1 in rows 1, 3,
    ..., 2g-1 first; any other unit minor still certifies full rank.  J_1
    is frag's first frame iterate when given, else read at the point.
    """
    ctx = cfg.ctx
    if not point.in_D:
        raise OutsideDomain("point is outside the unit-determinant domain")
    sring = ringmat.scalar_ring(ctx)
    M = (frag["J_seq"][0] if frag
         else _frame(cfg, 1, _point_kit(cfg, point))[0])
    g = cfg.g
    preferred = tuple(range(0, 2 * g - 1, 2))
    sub = [M[r] for r in preferred]
    v = ctx.val(ringmat.det(sring, sub))
    details = {
        "preferred_rows": list(preferred),
        "preferred_minor_valuation": v,
        "point_index": point.index,
    }
    if v == 0:
        return Certificate("rank-g-minor", True, 0, 0, details)
    rows = _unit_minor_rows(cfg, M)
    details["fallback_rows"] = list(rows) if rows is not None else None
    passed = rows is not None
    return Certificate("rank-g-minor", passed, 0, 0 if passed else v, details)


@dataclass
class LimitReport:
    cfg: KZConfig
    point: DomainPoint
    s_max: int
    a_frag: dict
    i_frag: dict
    certificates: list

    @property
    def passed(self):
        """The verdict: each of the four decay profiles is >= s + 1 at index
        s, every ratio determinant is a unit and every certificate passes."""
        profiles = (self.a_frag["decay"], self.i_frag["decay_J"],
                    self.i_frag["decay_K"], self.i_frag["decay_B"])
        return (all(v >= s + 1 for prof in profiles
                    for s, v in enumerate(prof))
                and all(v == 0 for v in self.a_frag["det_valuations"])
                and all(c.passed for c in self.certificates))

    def to_json(self):
        ctx = self.cfg.ctx

        def mat(M):
            return [[ctx.elem_to_json(x) for x in row] for row in M]

        return {
            "point_index": self.point.index,
            "s_max": self.s_max,
            "A_decay": self.a_frag["decay"],
            "A_det_valuations": self.a_frag["det_valuations"],
            "A": mat(self.a_frag["A"]),
            "I_decay": self.i_frag["decay_J"],
            "I_dirs_decay": self.i_frag["decay_K"],
            "A_dirs_decay": self.i_frag["decay_B"],
            "I": mat(self.i_frag["I"]),
            "certificates": [c.to_json() for c in self.certificates],
            "ctx": ctx.to_json(),
        }


def limit_report(cfg, point, s_max):
    """Full per-point pipeline, every read through one kit: decay profiles
    plus all certificates."""
    kit = _point_kit(cfg, point)
    a_frag = limit_A(cfg, point, s_max, kit)
    i_frag = limit_I(cfg, point, s_max, kit)
    certs = [
        verify_kz_mc(cfg, point, s_max, i_frag),
        verify_invariance(cfg, point, s_max, i_frag),
        rank_check(cfg, point, i_frag),
    ]
    return LimitReport(cfg, point, s_max, a_frag, i_frag, certs)
